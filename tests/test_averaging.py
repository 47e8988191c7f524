import numpy as np
import pytest

from caxial.lattice import build_lattice, open_cube, unit_torus, fine_torus
from caxial.fields import (BOND, SITE, apply_symmetry, block_symbol,
                           grad_matrix, random_field, scale_field)
from caxial.gaussian import kernel_basis
from caxial import averaging as av

RTOL = 1e-12


def rng():
    return np.random.default_rng(11)


def test_scalar_average_constant():
    lat = unit_torus(2, 3, 2)
    f = np.full(lat.n_sites, 2.5)
    g = av.scalar_average_matrix(lat) @ f
    assert np.allclose(g, 2.5)


def test_scalar_average_global():
    lat = fine_torus(2, 3, 2, 0)
    f = random_field(lat, SITE, rng())
    g = av.scalar_average_matrix(lat, 2) @ f
    assert av.coarsened(lat, 2).n_sites == g.size == 1
    assert abs(g[0] - f.mean()) < RTOL


def test_scalar_average_composes():
    lat = unit_torus(2, 3, 2)
    f = random_field(lat, SITE, rng())
    two_step = av.scalar_average_matrix(av.coarsened(lat)) \
        @ (av.scalar_average_matrix(lat) @ f)
    direct = av.scalar_average_matrix(lat, 2) @ f
    assert np.allclose(two_step, direct, atol=RTOL)


def test_bond_average_constant():
    lat = unit_torus(3, 3, 1)
    A = np.full(lat.n_bonds, 1.7)
    B = av.bond_average_matrix(lat) @ A
    assert np.allclose(B, 1.7)


def test_bond_average_intertwines_grad():
    for dim in (2, 3):
        lat = unit_torus(dim, 3, 2 if dim == 2 else 1)
        lam = random_field(lat, SITE, rng())
        lhs = av.bond_average_matrix(lat) @ (grad_matrix(lat) @ lam)
        rhs = grad_matrix(av.coarsened(lat)) \
            @ (av.scalar_average_matrix(lat) @ lam)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_bond_average_scale_invariant():
    lat = unit_torus(2, 3, 2)
    A = random_field(lat, BOND, rng())
    fine = build_lattice(lat.spec.rescaled(1))
    lhs = av.bond_average_matrix(fine) @ scale_field(lat, A, 1)
    rhs = scale_field(av.coarsened(lat), av.bond_average_matrix(lat) @ A, 1)
    assert av.coarsened(fine).spec == av.coarsened(lat).spec.rescaled(1)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_bond_average_direct_equals_composed():
    lat = unit_torus(2, 3, 2)
    assert np.allclose(av.bond_average_matrix(lat, 2).toarray(),
                       av.bond_average_direct_matrix(lat, 2).toarray(),
                       atol=1e-12)


def test_stokes_closure():
    # dZ = 0 implies d(qZ) = 0, including toron (winding) parts
    from caxial.fields import ext_d_matrix
    lat = unit_torus(2, 3, 2)
    r = rng()
    lam = random_field(lat, SITE, r)
    Z = grad_matrix(lat) @ lam
    for mu, c in enumerate(r.standard_normal(2)):
        Z[lat.bond_axes == mu] += c
    assert np.abs(ext_d_matrix(lat) @ Z).max() < 1e-12
    coarse = av.coarsened(lat)
    assert np.abs(ext_d_matrix(coarse) @ av.bond_average_matrix(lat) @ Z
                  ).max() < 1e-12


def test_toron_average_of_gradient_vanishes():
    lat = unit_torus(2, 3, 1)
    lam = random_field(lat, SITE, rng())
    assert np.abs(av.toron_average_matrix(lat) @ (grad_matrix(lat) @ lam)
                  ).max() < 1e-12


def test_toron_average_constant_direction():
    lat = unit_torus(2, 3, 1)
    vals = np.where(lat.bond_axes == 1, 0.5, 0.0)
    t = av.toron_average_matrix(lat) @ vals
    assert abs(t[0]) < RTOL
    assert abs(t[1] - 0.5 * lat.n_side) < RTOL


def test_toron_average_recovers_winding():
    lat = unit_torus(2, 3, 1)
    r = rng()
    lam = random_field(lat, SITE, r)
    vals = grad_matrix(lat) @ lam
    c = 0.37
    vals[lat.bond_axes == 0] += c
    t = av.toron_average_matrix(lat) @ vals
    assert abs(t[0] - c * lat.n_side) < 1e-12
    assert abs(t[1]) < 1e-12


def test_path_average_of_gradient():
    # (tau grad(lam))(y,x) = L**k (lam(x) - lam(y)) on a spacing L**-k lattice
    lat = fine_torus(2, 3, 1, 1)
    lam = random_field(lat, SITE, rng())
    tau = av.path_average_matrix(lat)
    vals = tau.matrix @ grad_matrix(lat).toarray() @ lam
    for (y, x), v in zip(tau.rows, vals):
        center = lat.site_ordinal(lat.L * tau.coarse.sites[y])
        expect = 3.0 * (lam[x] - lam[center])
        assert abs(v - expect) < 1e-12


def test_tree_path_on_open_cube():
    # single-path averages on B(0): bonds used form the axial tree
    lat = open_cube(2, 5)
    t0 = av.tree_path_matrix(lat)
    assert t0.matrix.shape == (24, lat.n_bonds)
    _, cols, vals = t0.matrix.entries()
    used = set(cols[vals != 0].tolist())
    assert used == lat.axial_tree()


def test_path_average_equals_tree_version_for_curl_free():
    lat = open_cube(2, 3)
    lam = random_field(lat, SITE, rng())
    A = grad_matrix(lat) @ lam
    tau = av.path_average_matrix(lat).matrix @ A
    tau0 = av.tree_path_matrix(lat).matrix @ A
    assert np.allclose(tau, tau0, atol=1e-12)


def test_path_average_symmetry_covariance():
    # (tau A_r)(y, x) = (tau A)(r^-1 y, r^-1 x)
    lat = unit_torus(2, 3, 1)
    tau = av.path_average_matrix(lat)
    A = random_field(lat, BOND, rng())
    for r in lat.symmetries():
        lhs = tau.matrix @ apply_symmetry(r, lat, BOND, A)
        rhs = tau.matrix @ A
        rinv = r.inverse()
        coarse_image = tau.coarse.site_permutation(rinv)
        fine_image = lat.site_permutation(rinv)
        pairs = list(map(tuple, tau.rows.tolist()))
        by_pair = dict(zip(pairs, rhs))
        for (y, x), v in zip(pairs, lhs):
            yi, xi = int(coarse_image[y]), int(fine_image[x])
            assert abs(v - by_pair[(yi, xi)]) < 1e-12


def test_path_average_scale_invariant():
    lat = unit_torus(2, 3, 2)
    A = random_field(lat, BOND, rng())
    As = scale_field(lat, A, 1)
    fine = build_lattice(lat.spec.rescaled(1))
    lhs = av.path_average_matrix(fine).matrix @ As
    rhs = 3.0 ** ((2 - 2) / 2) * (av.path_average_matrix(lat).matrix @ A)
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("dim,L,k,M", [(2, 3, 2, 0), (3, 3, 2, 0)])
def test_constraint_stack_row_counts(dim, L, k, M):
    fine = fine_torus(dim, L, k, M)
    stack = av.axial_constraint_stack(fine, k)
    s = lambda m: L ** (dim * m)
    expect = tuple(s(M + k - j) - s(M + k - j - 1) for j in range(k))
    assert stack.rows_per_level == expect
    # together with the one global scalar the counts telescope to s_{M+k}
    assert sum(expect) + 1 == s(M + k)


def test_constraint_stack_kills_hierarchical_gradients():
    fine = fine_torus(2, 3, 2, 0)
    stack = av.axial_constraint_stack(fine, 2)
    lam = random_field(fine, SITE, rng())
    vals = stack.matrix @ grad_matrix(fine).toarray() @ lam
    # gradients do not vanish in general, but block-constant scalars do
    const = np.ones(fine.n_sites)
    assert np.abs(stack.matrix @ grad_matrix(fine).toarray()
                  @ const).max() < 1e-12
    assert vals.shape == (80,)


def test_scalar_recovery_defining_equations():
    lat = unit_torus(2, 3, 1)
    Z = random_field(lat, BOND, rng())
    mu = av.scalar_recovery_matrix(lat) @ Z
    tau = av.path_average_matrix(lat)
    res = tau.matrix @ (Z + grad_matrix(lat).toarray() @ mu)
    assert np.abs(res).max() < 1e-12
    assert np.abs(av.scalar_average_matrix(lat, 1) @ mu).max() < 1e-12


def test_scalar_recovery_zero():
    lat = unit_torus(2, 3, 1)
    assert np.all(av.scalar_recovery_matrix(lat)
                  @ np.zeros(lat.n_bonds) == 0)


def test_scalar_recovery_inverts_gradient():
    # if the block averages of nu vanish then recovery(grad nu) = -nu
    lat = unit_torus(2, 3, 1)
    nu = random_field(lat, SITE, rng())
    q = av.scalar_average_matrix(lat, 1)
    nu_vals = nu - q.T @ (q @ nu) * lat.L**lat.dim / 1.0
    # subtract the block means: q.T injects the mean back onto each site
    assert np.abs(q @ nu_vals).max() < 1e-12
    mu = av.scalar_recovery_matrix(lat) @ grad_matrix(lat).toarray() @ nu_vals
    assert np.allclose(mu, -nu_vals, atol=1e-12)


def test_fluctuation_split_counts():
    lat = unit_torus(2, 3, 1)
    split = av.fluctuation_split(lat)
    # side-3 torus with one level: coarse is a single site with 2 loop bonds
    assert len(split.central) == split.coarse.n_bonds == 2
    assert len(split.linking) == 2 * 3
    assert len(split.noncentral) == 4
    assert len(split.in_block) + len(split.linking) == lat.n_bonds
    assert split.chi_star.sum() == lat.n_bonds - 2


def test_fluctuation_split_counts_two_level():
    lat = unit_torus(2, 3, 2)
    split = av.fluctuation_split(lat)
    assert len(split.central) == split.coarse.n_bonds == 18
    assert len(split.linking) == 18 * 3
    assert len(split.in_block) == lat.n_bonds - 54


def test_solve_central_zero_and_residual():
    lat = unit_torus(2, 3, 2)
    assert np.abs(av.solve_central(lat, np.zeros(lat.n_bonds))).max() == 0
    r = rng()
    v = r.standard_normal(lat.n_bonds)
    split = av.fluctuation_split(lat)
    v[list(split.central)] = av.solve_central(lat, v)
    assert np.abs(av.bond_average_matrix(lat, 1) @ v).max() < 1e-12


def test_solve_central_locality():
    lat = unit_torus(2, 3, 2)
    split = av.fluctuation_split(lat)
    r = rng()
    v = r.standard_normal(lat.n_bonds)
    base = av.solve_central(lat, v)
    # perturb an in-block bond in the block of coarse site (1,1) and check
    # the central bond between blocks (-1,-1),(0,-1) is unchanged exactly
    far_block = set(lat.block_members((3, 3), 1))
    far_bond = next(b for b, (s, m) in enumerate(zip(lat.bond_sites,
                                                     lat.bond_axes))
                    if s in far_block and lat.next[m, s] in far_block)
    v2 = v.copy()
    v2[far_bond] += 10.0
    pert = av.solve_central(lat, v2)
    cb = split.coarse.bond_index[split.coarse.site_ordinal((-1, -1)), 0]
    assert pert[cb] == base[cb]


def test_fluctuation_basis_range_and_rank():
    lat = unit_torus(2, 3, 1)
    C = av.fluctuation_basis(lat)
    tau = av.path_average_matrix(lat).matrix
    qb = av.bond_average_matrix(lat, 1)
    assert np.abs(tau @ C).max() < 1e-12
    assert np.abs(qb @ C).max() < 1e-12
    stacked = np.vstack([tau.toarray(), qb.toarray()])
    kdim = C.shape[1]
    s = np.linalg.svd(stacked, compute_uv=False)
    null_dim = stacked.shape[1] - int(np.sum(s > 1e-9 * s[0]))
    assert kdim == null_dim
    assert np.linalg.matrix_rank(C, tol=1e-9) == kdim


def _former_fluctuation_basis(lattice):
    """The basis before it was built block by block: one SVD of all the
    path averages on all in-block bonds."""
    split = av.fluctuation_split(lattice)
    tau = av.path_average_matrix(lattice).matrix.toarray()
    kernel = kernel_basis(tau[:, split.in_block])
    n_kernel, noncentral = kernel.shape[1], split.noncentral
    cols = np.zeros((lattice.n_bonds, n_kernel + len(noncentral)))
    cols[split.in_block, :n_kernel] = kernel
    cols[noncentral, n_kernel + np.arange(len(noncentral))] = 1.0
    cols[split.central] = av.solve_central(lattice, cols)
    return cols


@pytest.mark.parametrize("inst", [(2, 3, 1), (2, 5, 1), (3, 3, 1)])
def test_one_block_fluctuation_basis_is_the_former_one(inst):
    lat = unit_torus(*inst)
    assert np.array_equal(av.fluctuation_basis(lat),
                          _former_fluctuation_basis(lat))


@pytest.mark.parametrize("inst", [(2, 3, 2), (2, 3, 3)])
def test_fluctuation_basis_spans_the_former_space_covariantly(inst):
    lat = unit_torus(*inst)
    C, former = av.fluctuation_basis(lat), _former_fluctuation_basis(lat)
    assert C.shape == former.shape

    def projector(m):
        q, _ = np.linalg.qr(m)
        return q @ q.T
    assert np.abs(projector(C) - projector(former)).max() <= 1e-12
    # each block's columns are block 0's translated, so the basis is a
    # map from its per-block parameters that block_symbol accepts
    coarse = av.coarsened(lat)
    block_symbol(C, (lat, BOND), (coarse, C.shape[1] // coarse.n_sites),
                 coarse.n_side)
