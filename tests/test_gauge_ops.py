import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from caxial import averaging as av
from caxial import gauge_ops
from caxial.fields import ResourceCapExceeded, curl_energy_form, ext_d_matrix
from caxial.gauge_ops import (GaugeContext, change_of_gauge_check,
                              decay_profile, get_context,
                              one_shot_constraints, sym_norm2)
from caxial.gaussian import (IndefiniteOnSurface, SingularOperator,
                             kernel_basis, positive_cholesky, surface_min_eig)

TOL = 1e-10


def ctx0():
    return get_context(2, 3, 1, 0)


def ctx1():
    return get_context(2, 3, 2, 1)


# the level-1 contexts of the default instances over 2 levels, from the
# smallest to the largest
LEVEL_ONE = ((2, 3, 2, 1), (2, 3, 3, 1), (2, 5, 2, 1), (3, 3, 2, 1))


def test_get_context_guards_every_fetch(monkeypatch):
    ctx = get_context(2, 3, 2, 0)
    assert get_context(2, 3, 2, 0) is ctx
    # cached under the default cap, the context is not served under a
    # lower one
    monkeypatch.setenv("CAXIAL_MAX_DIM", "100")
    with pytest.raises(ResourceCapExceeded,
                       match="ambient dimension 162 exceeds cap 100"):
        get_context(2, 3, 2, 0)


def test_level_range_validated():
    with pytest.raises(ValueError):
        GaugeContext(2, 3, 1, 2)
    with pytest.raises(SingularOperator):
        GaugeContext(2, 3, 1, 0).green_scalar(a=0.0)


def test_green_inverts_regularized_laplacian():
    c = ctx1()
    op = c.lap_fine + (c.scalar_average_adj @ c.scalar_average).toarray()
    g = c.green_scalar()
    assert np.abs(g @ op - np.eye(c.fine.n_sites)).max() < TOL
    assert np.abs(g - g.T).max() < TOL


def test_projectors_orthogonal_and_complementary():
    for inst in LEVEL_ONE:
        c = get_context(*inst)
        r = c.proj_div()
        assert np.abs(r @ r - r).max() < TOL, inst
        assert np.abs(r - r.T).max() < TOL, inst


def test_average_green_kills_div_projector():
    for inst in LEVEL_ONE:
        c = get_context(*inst)
        assert np.abs(c.scalar_average @ c.green_scalar()
                      @ c.proj_div()).max() < TOL, inst


def test_div_projector_independent_of_regulator():
    r1 = get_context(2, 3, 2, 1).proj_div(a=1.0)
    r2 = get_context(2, 3, 2, 1).proj_div(a=2.5)
    assert np.abs(r1 - r2).max() < 1e-9


def test_div_projector_range_is_laplacian_of_average_kernel():
    c = ctx1()
    b = kernel_basis(c.scalar_average)
    image = c.lap_fine @ b
    # R acts as the identity on Lap(ker Q) ...
    assert np.abs(c.proj_div() @ image - image).max() < 1e-8
    # ... and its rank is exactly the dimension of that space
    assert round(np.trace(c.proj_div())) == b.shape[1]


def test_axial_minimizer_satisfies_constraints():
    c = ctx1()
    h = c.axial_minimizer
    assert np.abs(c.bond_average @ h - np.eye(c.unit.n_bonds)).max() < 1e-9
    stack = av.axial_constraint_stack(c.fine, c.level).matrix
    assert np.abs(stack @ h).max() < 1e-9


def test_feynman_minimizer_constraint_and_alpha_independence():
    # level 0 degenerates to the identity map; level 1 is the real test
    for level in (0, 1):
        c = get_context(2, 3, 2, level)
        h = c.feynman_minimizer()
        assert np.abs(c.bond_average @ h
                      - np.eye(c.unit.n_bonds)).max() < 1e-9
        d1 = c.effective_form("feynman")
        d2 = GaugeContext(2, 3, 2, level).effective_form("feynman",
                                                         alpha=0.25)
        d3 = GaugeContext(2, 3, 2, level).effective_form("feynman",
                                                         alpha=4.0)
        assert np.abs(d1 - d2).max() < 1e-9
        assert np.abs(d1 - d3).max() < 1e-9
        if level == 1:
            # far from zero (Frobenius norm 40.35): the comparisons above
            # are not between round-off and round-off
            assert np.linalg.norm(d1) > 1


def test_axial_and_feynman_forms_agree():
    c = ctx1()
    da = c.effective_form("axial")
    df = c.effective_form("feynman")
    assert np.abs(da - df).max() < 1e-9 * max(1.0, np.abs(da).max())


def test_minimizers_differ_by_pure_gauge():
    for level in (0, 1):
        c = get_context(2, 3, 2, level)
        diff = c.feynman_minimizer() - c.axial_minimizer
        # same curl ...
        assert np.abs(ext_d_matrix(c.fine) @ diff).max() < 1e-9
        # ... and the difference is an exact gradient of some potential
        pot, *_ = np.linalg.lstsq(c.grad_fine, diff, rcond=None)
        assert np.abs(c.grad_fine @ pot - diff).max() < 1e-8


def test_effective_form_kills_coarse_gradients():
    from caxial.fields import grad_matrix
    c = ctx1()
    g = grad_matrix(c.unit).toarray()
    assert np.abs(c.delta @ g).max() < 1e-9


def test_effective_form_positive_on_fluctuation_surface():
    c = ctx1()
    assert surface_min_eig(c.delta, one_shot_constraints(c.unit, 1)) > 0


def test_lambda0_solves_defining_equations():
    c = ctx1()
    lam = c.lambda0_map()
    assert np.abs(c.scalar_average @ lam - np.eye(c.unit.n_sites)).max() < 1e-9
    assert np.abs(c.proj_div() @ c.lap_fine @ lam).max() < 1e-9


def test_lambda0_independent_of_regulator():
    l1 = get_context(2, 3, 2, 1).lambda0_map(a=1.0)
    l2 = get_context(2, 3, 2, 1).lambda0_map(a=3.0)
    assert np.abs(l1 - l2).max() < 1e-8


@pytest.mark.parametrize("x", [0.0, 0.5])
def test_tilde_green_annihilates_next_average(x):
    c = ctx0()
    g = c.tilde_green(x)
    assert np.abs(c.bond_average_next @ g).max() < 1e-9


def test_tilde_green_projection_identity():
    c = ctx0()
    x = 0.7
    g = c.tilde_green(x)
    op = np.linalg.inv(c.fine_green(x))
    assert np.abs(g @ op @ g - g).max() < 1e-8


def test_tilde_green_independent_of_regulator():
    g1 = get_context(2, 3, 1, 0).tilde_green(0.3, a=1.0)
    g2 = get_context(2, 3, 1, 0).tilde_green(0.3, a=2.0)
    assert np.abs(g1 - g2).max() < 1e-8


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_fluctuation_covariance_representation(a):
    c = get_context(2, 3, 1, 0)
    res = c.rep_check((0.0, 0.1, 1.0, 10.0), a=a)
    assert max(res.values()) < 1e-10


def test_fluctuation_covariance_representation_level_one():
    c = get_context(2, 3, 2, 1)
    res = c.rep_check((0.0, 1.0))
    assert max(res.values()) < 1e-9


@pytest.mark.parametrize("inst", [(2, 3, 1, 0), (2, 3, 2, 1), (3, 3, 1, 0)])
def test_symmetric_norm_matches_svd_norm(inst):
    # the spectral norms of rep_check and change_of_gauge_check come from
    # eigvalsh; norm(., 2), the SVD they replaced, is the reference
    c = get_context(*inst)
    C, comp = c.fluct_basis, c.compression
    sym = np.random.default_rng(5).standard_normal((40, 40))
    mats = [sym + sym.T, c.green_scalar(), -c.green_scalar(), c.proj_div()]
    for x in (0.0, 1.0):
        lhs = C @ c.fluct_cov(x) @ C.T
        rhs = comp @ c.tilde_green(x) @ comp.T
        mats += [lhs, rhs]
        # the residual is round-off, so its asymmetric part is too: compare
        # the check value on the scale of its denominator
        old = np.linalg.norm(lhs - rhs, 2) / np.linalg.norm(lhs, 2)
        assert abs(c.rep_check((x,))[x] - old) <= 1e-12
    for m in mats:
        ref = np.linalg.norm(m, 2)
        assert abs(sym_norm2(m) - ref) <= 1e-12 * ref


# the averaging, recovery and compression maps a context keeps as CSR, and
# their Grams
SPARSE_MAPS = ("scalar_average", "scalar_average_adj", "scalar_average_next",
               "bond_average", "bond_average_next", "one_plus_grad_recovery",
               "compression", "bond_average_next_gram", "x_gram")
ORACLE = ((2, 3, 1, 0), (2, 3, 2, 1), (3, 3, 1, 0))


@pytest.mark.parametrize("inst", ORACLE)
def test_averaging_maps_stay_sparse(inst):
    c = get_context(*inst)
    for name in SPARSE_MAPS:
        assert sp.issparse(getattr(c, name)), name
    # the compression is the product it names
    prod = c.one_plus_grad_recovery @ c.bond_average
    assert (c.compression != prod).nnz == 0


@pytest.mark.parametrize("inst", ORACLE)
def test_products_are_ndarrays(inst):
    # a dense matrix plus a csr_matrix is an np.matrix, whose * and
    # indexing differ from an ndarray's; no product may leak one
    assert type(np.eye(2) + sp.identity(2, format="csr")) is np.matrix
    c = get_context(*inst)
    mats = {"green_scalar": c.green_scalar(), "proj_div": c.proj_div(),
            "proj_div_next": c.proj_div_next(),
            "fine_green": c.fine_green(0.5), "tilde_green": c.tilde_green(0.5),
            "lambda0_map": c.lambda0_map(),
            "feynman_minimizer": c.feynman_minimizer(),
            "div_penalty": c.div_penalty,
            "gauge_bijection_matrix": c.gauge_bijection_matrix()}
    for name, m in mats.items():
        assert type(m) is np.ndarray, name


def _dense_green(lap, q, q_adj, a):
    op = lap + a * q_adj @ q
    chol = positive_cholesky(0.5 * (op + op.T))
    return sla.cho_solve((chol, True), np.eye(op.shape[0]))


def _dense_oracle(c, x, a):
    """fine_green, tilde_green and the rep_check right-hand side from the
    dense averaging and recovery maps, as computed before the context kept
    them sparse."""
    dg = c.grad_fine
    qs = c.scalar_average_next.toarray()
    qs_adj = float(c.L) ** ((c.level + 1) * c.dim) * qs.T
    g = _dense_green(c.lap_fine, qs, qs_adj, a)
    p = g @ qs_adj @ np.linalg.solve(qs @ g @ g @ qs_adj, qs @ g)
    r_next = np.eye(p.shape[0]) - 0.5 * (p + p.T)
    qn = c.bond_average_next.toarray()
    qb = c.bond_average.toarray()
    ipd = c.one_plus_grad_recovery.toarray()
    op = (curl_energy_form(c.fine) + c.weight * dg @ r_next @ dg.T
          + a * qn.T @ qn)
    if x:
        xm = (c.chi_star[:, None] * ipd) @ qb
        op = op + x * xm.T @ xm
    chol = positive_cholesky(0.5 * (op + op.T))
    fine = sla.cho_solve((chol, True), np.eye(op.shape[0]))
    tilde = fine - fine @ qn.T @ np.linalg.solve(qn @ fine @ qn.T,
                                                 qn @ fine)
    tilde = 0.5 * (tilde + tilde.T)
    return fine, tilde, ipd @ qb @ tilde @ qb.T @ ipd.T


@pytest.mark.parametrize("inst", ORACLE)
def test_sparse_maps_match_the_dense_oracle(inst):
    c = get_context(*inst)
    C, comp = c.fluct_basis, c.compression
    for x, a in ((0.0, 1.0), (1.0, 2.0)):
        fine, tilde, rhs = _dense_oracle(c, x, a)
        got = (c.fine_green(x, a), c.tilde_green(x, a),
               comp @ c.tilde_green(x, a) @ comp.T)
        for name, ref, new in zip(("fine_green", "tilde_green", "rhs"),
                                  (fine, tilde, rhs), got):
            assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max(), \
                (name, x, a)
        # the check value, a round-off residual, on the scale of its
        # denominator
        lhs = C @ c.fluct_cov(x) @ C.T
        old = sym_norm2(lhs - rhs) / sym_norm2(lhs)
        assert abs(c.rep_check((x,), a)[x] - old) <= 1e-12


def test_cov_sqrt_spectral_squares_to_covariance():
    c = ctx1()
    root = c.cov_sqrt_spectral()
    assert np.abs(root @ root - c.fluct_cov(0.0)).max() < 1e-9


def test_cholesky_certificates_raise_the_callers_errors():
    # a shift far below the spectrum makes both operators indefinite
    c = ctx1()
    with pytest.raises(IndefiniteOnSurface):
        c.fluct_cov(-1e6)
    with pytest.raises(SingularOperator):
        c.fine_green(-1e6)
    assert np.allclose(c.fluct_cov(0.0) @ c.reduced_delta,
                       np.eye(c.reduced_delta.shape[0]), atol=1e-9)


def test_cov_sqrt_quadrature_matches_spectral():
    c = ctx1()
    ref = c.cov_sqrt_spectral()
    err = np.abs(c.cov_sqrt_quadrature(200) - ref).max()
    assert err < 1e-8
    # the rule converges: coarser grids are strictly worse
    err_coarse = np.abs(c.cov_sqrt_quadrature(20) - ref).max()
    assert err < err_coarse


def test_change_of_gauge_moments_and_dimension():
    c = ctx1()
    rng = np.random.default_rng(11)
    out = change_of_gauge_check(c, rng.standard_normal(c.unit.n_bonds))
    assert out["square"] and out["dims_match"] and out["invertible"]
    assert np.isfinite(out["condition"])
    assert out["mean_residual"] < 1e-9
    assert out["covariance_residual"] < 1e-9


def test_change_of_gauge_rejects_a_singular_split_map(monkeypatch):
    # a repeated row makes the split map singular, yet its condition number
    # stays finite: the rank cut, not finiteness, decides invertibility
    c = ctx1()
    m = c.gauge_bijection_matrix()
    m[-1] = m[0]
    monkeypatch.setattr(GaugeContext, "gauge_bijection_matrix",
                        lambda self: m)
    rng = np.random.default_rng(11)
    out = change_of_gauge_check(c, rng.standard_normal(c.unit.n_bonds))
    assert out["square"] and np.isfinite(out["condition"])
    assert not out["invertible"]


@pytest.mark.parametrize("inst", [(2, 3, 2, 1), (2, 5, 1, 1), (3, 3, 1, 1),
                                  (2, 3, 1, 0)])
def test_cached_div_penalty_equals_the_inline_form(inst):
    c = get_context(*inst)
    dg = c.grad_fine
    for alpha in (0.5, 1.0, 2.0):
        inline = (c.weight / alpha) * dg @ c.proj_div() @ dg.T
        assert np.array_equal(c.div_penalty / alpha, inline), alpha


def test_change_of_gauge_takes_one_eigh(monkeypatch):
    # the divergence-range basis is cached: the split map and the Landau
    # surface share one eigendecomposition of R
    original = np.linalg.eigh
    calls = []

    def counted(m):
        calls.append(m.shape)
        return original(m)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    c = GaugeContext(2, 3, 2, 1)
    out = change_of_gauge_check(c, np.ones(c.unit.n_bonds))
    assert out["invertible"]
    assert calls == [(c.fine.n_sites, c.fine.n_sites)]


def test_proj_div_reuses_the_green_function(monkeypatch):
    original = gauge_ops.positive_cholesky
    factored = []

    def counted(*args):
        factored.append(args[2])
        return original(*args)
    monkeypatch.setattr(gauge_ops, "positive_cholesky", counted)
    c = GaugeContext(2, 3, 2, 1)
    c.green_scalar(1.0)
    assert factored == ["-Lap + a Q^T Q"]
    c.proj_div(1.0)
    assert factored == ["-Lap + a Q^T Q"]


def test_decay_profile_massive_inverse():
    c = ctx0()
    op = np.linalg.inv(curl_energy_form(c.fine)
                       + c.weight * c.grad_fine @ c.grad_fine.T
                       + 0.5 * np.eye(c.fine.n_bonds))
    prof = decay_profile(op, c.fine, c.fine)
    assert prof["slope"] < 0
    assert prof["correlation"] < -0.9


def test_decay_profile_minimizer_kernel():
    c = ctx1()
    prof = decay_profile(c.axial_minimizer, c.fine, c.unit)
    assert prof["slope"] < 0


def test_decay_profile_rejects_mismatched_tori():
    from caxial.lattice import unit_torus
    with pytest.raises(ValueError):
        decay_profile(np.zeros((1, 1)), unit_torus(2, 3, 1),
                      unit_torus(2, 3, 2))
