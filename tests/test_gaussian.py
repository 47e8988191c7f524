import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caxial import averaging as av
from caxial.fields import curl_energy_form, ext_d_matrix, grad_matrix
from caxial.gaussian import (RANK_TOL, AffineSurface, ConstraintFactor,
                             IndefiniteOnSurface, QuadraticDensity,
                             SingularOperator, kernel_basis,
                             constrained_minimize, kernel_residual,
                             log_partition, minimizer_map,
                             subspace_covariance, moment_generating,
                             positive_cholesky, push_constraint,
                             surface_min_eig)
from caxial.gauge_ops import average_constraints, get_context
from caxial.lattice import fine_torus, unit_torus
from caxial.rg_flow import (_one_shot_winding_constraints, _step_constraints,
                            _winding_constraints, one_shot_constraints)


def rng(seed=3):
    return np.random.default_rng(seed)


def random_spd(n, r, shift=0.5):
    m = r.standard_normal((n, n))
    return m @ m.T + shift * np.eye(n)


def test_kernel_basis_identity_empty():
    assert kernel_basis(np.eye(4)).shape == (4, 0)


def test_kernel_basis_orthonormal():
    r = rng()
    K = r.standard_normal((3, 8))
    B = kernel_basis(K)
    assert B.shape == (8, 5)
    assert np.allclose(B.T @ B, np.eye(5), atol=1e-12)
    assert np.abs(K @ B).max() < 1e-12 * np.abs(K).max()


def test_minimize_homogeneous_zero():
    r = rng()
    d = QuadraticDensity(random_spd(6, r))
    s = AffineSurface.from_constraints(r.standard_normal((2, 6)))
    assert np.abs(constrained_minimize(d, s)).max() < 1e-12


def test_minimize_unconstrained():
    r = rng()
    F = random_spd(5, r)
    J = r.standard_normal(5)
    d = QuadraticDensity(F, J)
    s = AffineSurface.unconstrained(5)
    assert np.allclose(constrained_minimize(d, s), np.linalg.solve(F, J),
                       atol=1e-10)


def test_minimize_first_order_optimality():
    r = rng()
    F = random_spd(7, r)
    d = QuadraticDensity(F, r.standard_normal(7))
    K = r.standard_normal((3, 7))
    b = r.standard_normal(3)
    s = AffineSurface.from_constraints(K, b)
    v = constrained_minimize(d, s)
    assert np.abs(K @ v - b).max() < 1e-10
    grad = F @ v - d.linear
    # gradient orthogonal to the surface directions
    assert np.abs(s.basis.T @ grad).max() < 1e-9


def test_minimize_independent_of_particular_point():
    r = rng()
    F = random_spd(7, r)
    d = QuadraticDensity(F, r.standard_normal(7))
    K = r.standard_normal((3, 7))
    b = r.standard_normal(3)
    s1 = AffineSurface.from_constraints(K, b)
    # different particular solution on the same surface
    shift = s1.basis @ r.standard_normal(s1.surface_dim)
    s2 = AffineSurface(K, b, s1.basis, s1.particular + shift, s1.row_rank,
                       s1.log_gram)
    assert np.allclose(constrained_minimize(d, s1),
                       constrained_minimize(d, s2), atol=1e-10)


def test_indefinite_raises():
    d = QuadraticDensity(np.diag([1.0, -1.0]))
    s = AffineSurface.unconstrained(2)
    with pytest.raises(IndefiniteOnSurface):
        constrained_minimize(d, s)
    # but a constraint removing the bad direction makes it fine
    s2 = AffineSurface.from_constraints(np.array([[0.0, 1.0]]))
    assert surface_min_eig(d, s2) > 0


def test_zero_eigenvalue_is_not_positive_definite():
    # the boundary case: a form with an exact zero eigenvalue on the surface
    d = QuadraticDensity(np.diag([1.0, 0.0]))
    s = AffineSurface.unconstrained(2)
    for integrate in (constrained_minimize, log_partition,
                      subspace_covariance):
        with pytest.raises(IndefiniteOnSurface):
            integrate(d, s)
    with pytest.raises(IndefiniteOnSurface):
        push_constraint(d, np.zeros((0, 2)), np.zeros((0, 1)))
    for error in (IndefiniteOnSurface, SingularOperator):
        with pytest.raises(error):
            positive_cholesky(np.diag([1.0, 0.0]), error)
    assert np.allclose(positive_cholesky(np.diag([4.0, 1.0])),
                       np.diag([2.0, 1.0]))


def _constraint_cases():
    r = rng(11)
    full = r.standard_normal((3, 8))
    deficient = r.standard_normal((4, 2)) @ r.standard_normal((2, 8))
    yield "full_rank", full, r.standard_normal((3, 2))
    yield "rank_deficient", deficient, deficient @ r.standard_normal((8, 3))
    yield "empty", np.zeros((0, 5)), np.zeros((0, 2))
    step = _step_constraints(unit_torus(2, 3, 1))
    yield "step_2_3_1", step.matrix, step.fiber
    one_shot = one_shot_constraints(fine_torus(2, 3, 1, 0), 1)
    yield "one_shot_2_3_1", one_shot.matrix, one_shot.fiber


@pytest.mark.parametrize("case", list(_constraint_cases()),
                         ids=lambda case: case[0])
def test_single_svd_matches_dense_references(case):
    # the one SVD per constraint matrix against the dense calls it replaced
    _, K, E = case
    tol = RANK_TOL
    b = E @ rng(12).standard_normal(E.shape[1])

    def close(a, ref):
        assert a.shape == ref.shape
        scale = max(1.0, np.abs(ref).max()) if ref.size else 1.0
        assert np.abs(a - ref).max(initial=0.0) <= 1e-12 * scale

    f = ConstraintFactor(K, tol=tol)
    basis, rank, log_gram, pinv = f.basis, f.rank, f.log_gram, f.pinv
    surface = AffineSurface.from_constraints(K, b, tol)
    pinv_ref = np.linalg.pinv(K, rcond=tol)
    s = np.linalg.svd(K, compute_uv=False)
    rank_ref = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    assert rank == surface.row_rank == rank_ref
    assert log_gram == surface.log_gram
    log_gram_ref = 2.0 * np.sum(np.log(s[:rank_ref]))
    assert abs(log_gram - log_gram_ref) <= 1e-12 * max(1.0, abs(log_gram_ref))
    close(basis @ basis.T, np.eye(K.shape[1]) - pinv_ref @ K)
    close(surface.basis, basis)
    close(surface.particular, np.linalg.lstsq(K, b, rcond=None)[0])
    close(pinv(E), pinv_ref @ E)


def _kernel_basis_residual(T, K):
    """The former certificate: max |T V| over an orthonormal basis V of
    ker K, kept as the reference for kernel_residual."""
    tv = T @ kernel_basis(K)
    return float(np.abs(tv).max()) if tv.size else 0.0


def _averaging_kernel_identities(dim, L, levels):
    """(T, K) of the averaging suite's two kernel identities: the block
    average of a curl-free field is curl-free, and the recovery operator
    inverts minus the gradient on zero-average scalars."""
    lat = unit_torus(dim, L, levels)
    coarse = av.coarsened(lat)
    closed = (ext_d_matrix(coarse).toarray()
              @ av.bond_average_matrix(lat, 1).toarray(),
              ext_d_matrix(lat).toarray())
    recovery = (av.scalar_recovery_matrix(lat).toarray()
                @ grad_matrix(lat).toarray() + np.eye(lat.n_sites),
                av.scalar_average_matrix(lat, 1).toarray())
    return {"closed": closed, "recovery": recovery}


@pytest.mark.parametrize("dim,L,levels",
                         [(2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 3, 1)])
def test_kernel_residual_matches_kernel_basis(dim, L, levels):
    r = rng(dim * L + levels)
    cases = _averaging_kernel_identities(dim, L, levels)
    # ext_d has dependent rows (in 2-D the plaquettes of the torus sum to
    # zero, in 3-D the six faces of every cube do), so the rank rule is used
    d = cases["closed"][1]
    assert ConstraintFactor(d).rank < d.shape[0]
    for T, K in cases.values():
        # lstsq's rcond cut is kernel_basis's rank rule
        assert np.linalg.lstsq(K.T, T.T, rcond=RANK_TOL)[2] \
            == ConstraintFactor(K).rank
        assert kernel_residual(T, K) <= 1e-13
        assert _kernel_basis_residual(T, K) <= 1e-13
        # a row that does not vanish on ker K shows in both paths
        bad = np.vstack([T, r.standard_normal(K.shape[1])])
        assert kernel_residual(bad, K) > 1e-2
        assert _kernel_basis_residual(bad, K) > 1e-2


def test_kernel_residual_degenerate_constraints():
    T = rng().standard_normal((2, 5))
    # no constraint rows, or only zero rows: the kernel is everything
    for K in (np.zeros((0, 5)), np.zeros((3, 5))):
        assert kernel_residual(T, K) == np.abs(T).max()
    assert kernel_residual(np.zeros((0, 5)), np.eye(5)) == 0.0
    # T in the row space of K vanishes on ker K
    K = rng(4).standard_normal((3, 5))
    assert kernel_residual(rng(5).standard_normal((4, 3)) @ K, K) < 1e-13


def test_log_partition_1d():
    a = 2.7
    d = QuadraticDensity(np.array([[a]]))
    s = AffineSurface.unconstrained(1)
    assert abs(log_partition(d, s) - 0.5 * np.log(2 * np.pi / a)) < 1e-12


def test_log_partition_additivity():
    r = rng()
    F1, F2 = random_spd(3, r), random_spd(4, r)
    d1 = QuadraticDensity(F1, r.standard_normal(3))
    d2 = QuadraticDensity(F2, r.standard_normal(4))
    dd = QuadraticDensity(np.block([[F1, np.zeros((3, 4))],
                                    [np.zeros((4, 3)), F2]]),
                          np.concatenate([d1.linear, d2.linear]))
    lp = log_partition(dd, AffineSurface.unconstrained(7))
    assert abs(lp - log_partition(d1, AffineSurface.unconstrained(3))
               - log_partition(d2, AffineSurface.unconstrained(4))) < 1e-10


def test_log_partition_invariant_under_reorthonormalization():
    r = rng()
    d = QuadraticDensity(random_spd(8, r), r.standard_normal(8))
    K = r.standard_normal((3, 8))
    b = r.standard_normal(3)
    s1 = AffineSurface.from_constraints(K, b)
    # rotate the kernel basis: same surface, different orthonormal basis
    q, _ = np.linalg.qr(r.standard_normal((s1.surface_dim, s1.surface_dim)))
    s2 = AffineSurface(K, b, s1.basis @ q, s1.particular, s1.row_rank,
                       s1.log_gram)
    for conv in ("surface", "dirac"):
        assert abs(log_partition(d, s1, conv)
                   - log_partition(d, s2, conv)) < 1e-10


def test_log_partition_dirac_row_scaling():
    # doubling a constraint row halves the dirac integral, and leaves the
    # surface integral unchanged
    r = rng()
    d = QuadraticDensity(random_spd(5, r))
    K = r.standard_normal((2, 5))
    s1 = AffineSurface.from_constraints(K)
    s2 = AffineSurface.from_constraints(np.vstack([2 * K[0], K[1]]))
    assert abs(log_partition(d, s1) - log_partition(d, s2)) < 1e-10
    assert abs(log_partition(d, s1, "dirac") - log_partition(d, s2, "dirac")
               - np.log(2.0)) < 1e-10


def test_log_partition_dirac_needs_full_rank():
    r = rng()
    d = QuadraticDensity(random_spd(5, r))
    row = r.standard_normal(5)
    s = AffineSurface.from_constraints(np.vstack([row, row]))
    log_partition(d, s)  # surface convention fine
    with pytest.raises(SingularOperator):
        log_partition(d, s, "dirac")


def test_log_partition_matches_brute_force_eigen():
    r = rng()
    d = QuadraticDensity(random_spd(6, r), r.standard_normal(6))
    K = r.standard_normal((2, 6))
    s = AffineSurface.from_constraints(K, r.standard_normal(2))
    R = s.basis.T @ d.form @ s.basis
    w = np.linalg.eigvalsh(R)
    vstar = constrained_minimize(d, s)
    expect = (0.5 * len(w) * np.log(2 * np.pi) - 0.5 * np.sum(np.log(w))
              + d.log_value(vstar))
    assert abs(log_partition(d, s) - expect) < 1e-10


def test_subspace_covariance_support_and_pullback():
    r = rng()
    d = QuadraticDensity(random_spd(6, r))
    K = r.standard_normal((2, 6))
    s = AffineSurface.from_constraints(K)
    cov = subspace_covariance(d, s)
    assert np.abs(K @ cov).max() < 1e-10
    pulled = s.basis.T @ cov @ s.basis
    expect = np.linalg.inv(s.basis.T @ d.form @ s.basis)
    assert np.allclose(pulled, expect, atol=1e-10)


def test_covariance_identity_form():
    d = QuadraticDensity(np.eye(4))
    s = AffineSurface.unconstrained(4)
    assert np.allclose(subspace_covariance(d, s), np.eye(4), atol=1e-12)


def test_moment_generating_quadratic_consistency():
    r = rng()
    d = QuadraticDensity(random_spd(5, r), r.standard_normal(5))
    s = AffineSurface.from_constraints(r.standard_normal((2, 5)),
                                       r.standard_normal(2))
    J = r.standard_normal(5)
    m1 = moment_generating(d, s, J)
    m2 = moment_generating(d, s, 2 * J)
    mean = constrained_minimize(d, s)
    # quadratic polynomial identity in the scale of J
    assert abs((m2 - 2 * (mean @ J)) - 4 * (m1 - mean @ J)) < 1e-9
    assert moment_generating(d, s, np.zeros(5)) == 0.0


def test_moment_generating_matches_log_partition_shift():
    # log E e^<v,J> = log_partition(with linear + J) - log_partition(base)
    r = rng()
    d = QuadraticDensity(random_spd(5, r), r.standard_normal(5))
    s = AffineSurface.from_constraints(r.standard_normal((2, 5)),
                                       r.standard_normal(2))
    J = r.standard_normal(5)
    shifted = QuadraticDensity(d.form, d.linear + J, d.log_const)
    assert abs(moment_generating(d, s, J)
               - (log_partition(shifted, s) - log_partition(d, s))) < 1e-9


@pytest.mark.parametrize("convention", ["surface", "dirac"])
def test_push_constraint_matches_pointwise_partition(convention):
    # the pushed density evaluated at A equals the fiber integral at A
    r = rng()
    F = random_spd(7, r)
    l = r.standard_normal(7)
    d = QuadraticDensity(F, l, 0.3)
    K = r.standard_normal((3, 7))
    E = r.standard_normal((3, 2))
    pushed = push_constraint(d, K, E, convention=convention)
    for A in (np.zeros(2), r.standard_normal(2), r.standard_normal(2)):
        s = AffineSurface.from_constraints(K, E @ A)
        assert abs(pushed.log_value(A) - log_partition(d, s, convention)) < 1e-9


def test_push_constraint_gaussian_marginal():
    # pushing with K = [I 0] (dirac) is ordinary marginalization
    r = rng()
    F = random_spd(4, r)
    d = QuadraticDensity(F)
    K = np.hstack([np.eye(2), np.zeros((2, 2))])
    # fiber {v : v[:2] = A}: integrate out v[2:]
    pushed = push_constraint(d, K, np.eye(2), convention="dirac")
    cov = np.linalg.inv(F)
    marg_form = np.linalg.inv(cov[:2, :2])
    A = r.standard_normal(2)
    expect = (-0.5 * A @ marg_form @ A
              + 0.5 * np.linalg.slogdet(F)[1] * 0 + pushed.log_value(np.zeros(2)))
    assert abs(pushed.log_value(A) - expect) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_minimizer_feasible_property(seed):
    r = np.random.default_rng(seed)
    F = random_spd(6, r)
    d = QuadraticDensity(F, r.standard_normal(6))
    K = r.standard_normal((2, 6))
    b = r.standard_normal(2)
    s = AffineSurface.from_constraints(K, b)
    v = constrained_minimize(d, s)
    assert np.abs(K @ v - b).max() < 1e-8


def _builder_factors(dim, L, levels):
    """(name, lattice, factor) of every lattice-keyed constraint builder of
    one instance: the flow's step surfaces, the one-shot (axial) surfaces
    at k = 0 .. levels, and the two winding stacks of the last level."""
    for j in range(levels):
        lat = unit_torus(dim, L, levels - j)
        yield f"step_{j}", lat, _step_constraints(lat)
    for k in range(levels + 1):
        fine = fine_torus(dim, L, k, levels - k)
        yield f"one_shot_{k}", fine, one_shot_constraints(fine, k)
    lat = unit_torus(dim, L, 1)
    yield "winding", lat, _winding_constraints(lat)
    fine = fine_torus(dim, L, levels, 0)
    yield "one_shot_winding", fine, _one_shot_winding_constraints(fine, levels)


@pytest.mark.parametrize("dim,L,levels",
                         [(2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 3, 1)])
def test_cached_factor_matches_fresh_factorization(dim, L, levels):
    # a raw K is factored on entry by the same constructor, so the cached
    # factor must reproduce it bit for bit
    r = rng(dim * L + levels)
    for name, lat, f in _builder_factors(dim, L, levels):
        K = np.array(f.matrix)
        form = curl_energy_form(lat)
        density = QuadraticDensity(form, r.standard_normal(lat.n_bonds))
        cached = AffineSurface.from_constraints(f)
        fresh = AffineSurface.from_constraints(K)
        assert np.array_equal(cached.basis, fresh.basis), name
        assert np.array_equal(cached.particular, fresh.particular), name
        assert (cached.row_rank, cached.log_gram) \
            == (fresh.row_rank, fresh.log_gram), name
        for convention in ("surface", "dirac"):
            assert log_partition(density, cached, convention) \
                == log_partition(density, fresh, convention), name
        if f.fiber is None:
            continue
        E = np.array(f.fiber)
        for convention in ("surface", "dirac"):
            p_cached = push_constraint(density, f, convention=convention)
            p_fresh = push_constraint(density, K, E, convention=convention)
            assert np.array_equal(p_cached.form, p_fresh.form), name
            assert np.array_equal(p_cached.linear, p_fresh.linear), name
            assert p_cached.log_const == p_fresh.log_const, name
        assert np.array_equal(minimizer_map(form, f),
                              minimizer_map(form, K, E)), name
        # the same factor over another fiber map (the coarse minimizer's)
        s = float(L) ** ((dim - 2) / 2.0)
        assert np.array_equal(minimizer_map(form, f, s * E),
                              minimizer_map(form, K, s * E)), name


def test_cached_factors_are_read_only_and_shared():
    f = _step_constraints(unit_torus(2, 3, 1))
    for a in (f.matrix, f.fiber, f.basis, f.lift,
              AffineSurface.from_constraints(f).basis):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    # the caller's raw K keeps its own flags
    K = np.eye(3)
    ConstraintFactor(K)
    K[0, 0] = 2.0
    # the axial minimizer factors the one-shot surface of its level; at
    # level 0 that is the block-average surface of the Feynman minimizer
    for level in (0, 1, 2):
        ctx = get_context(2, 3, 2, level)
        assert ctx.axial_surface is one_shot_constraints(ctx.fine, level)
    ctx = get_context(2, 3, 2, 0)
    assert ctx.axial_surface is average_constraints(ctx.fine, 0)
