import copy
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from caxial import averaging as av
from caxial import csr
from caxial.fields import curl_energy_form, ext_d_matrix, grad_matrix
from caxial.gaussian import (RANK_TOL, AffineSurface, IndefiniteOnSurface,
                             QuadraticDensity, SingularOperator,
                             SurfaceGaussian, kernel_basis, kernel_residual,
                             positive_cholesky)
from caxial.gauge_ops import average_constraints, get_context
from caxial.lattice import clear_caches, fine_torus, unit_torus
from caxial.rg_flow import (_one_shot_winding_constraints, flow_states,
                            one_shot_constraints)


def rng(seed=3):
    return np.random.default_rng(seed)


def _builder_matrix(builder, fine, k):
    """The K of a constraint builder (dense), restacked from the builder's
    own csr.vstack inputs: a surface keeps only its row count."""
    if builder is average_constraints:
        return av.bond_average_matrix(fine, k).toarray()
    top = (av.toron_average_full_matrix(fine, k)
           if builder is _one_shot_winding_constraints
           else av.bond_average_matrix(fine, k))
    return csr.vstack([top, av.axial_constraint_stack(fine, k).matrix]
                      ).toarray()


def random_spd(n, r, shift=0.5):
    m = r.standard_normal((n, n))
    return m @ m.T + shift * np.eye(n)


def unconstrained(n):
    return AffineSurface(np.zeros((0, n)))


# one output of the reduced Gaussian each, under the names of the free
# functions it replaced, so that their oracles below read as before
def minimizer_map(F, surface):
    return SurfaceGaussian(F, surface).minimizer


def subspace_covariance(F, surface):
    return SurfaceGaussian(F, surface).covariance


# the density's constant is carried by the caller, as the flow does
def log_partition(density, surface):
    return density.log_const \
        + SurfaceGaussian(density.form, surface).log_partition


def push_constraint(density, surface):
    pushed = SurfaceGaussian(density.form, surface).push
    return QuadraticDensity(pushed.form,
                            density.log_const + pushed.log_const)


def log_value(density, v):
    """log of the density at the point v."""
    return density.log_const - 0.5 * v @ density.form @ v


def kkt_solve(F, K, J, b):
    """x of [[F, K^T], [K, 0]] [x; mu] = [J; b]: the argmin of
    1/2 <v, F v> - <J, v> subject to K v = b (full row rank K)."""
    n, m = F.shape[0], K.shape[0]
    kkt = np.block([[F, K.T], [K, np.zeros((m, m))]])
    return np.linalg.solve(kkt, np.concatenate([J, b]))[:n]


def test_kernel_basis_identity_empty():
    assert kernel_basis(np.eye(4)).shape == (4, 0)


@pytest.mark.parametrize("three_d", [False, True])
def test_identity_surface_takes_no_svd(monkeypatch, three_d):
    # level 0 integrates nothing: its axial minimizer is the identity and
    # its density the curl form with log Z_0 = 0, built with no SVD, no
    # surface and no Gaussian; the flow starts from that same density.
    # On (2,3,2) and on (3,3,1)
    instance = (3, 3, 1) if three_d else (2, 3, 2)

    def refused(*args, **kwargs):
        raise AssertionError("level 0 factors or integrates")
    clear_caches()
    monkeypatch.setattr(np.linalg, "svd", refused)
    monkeypatch.setattr(AffineSurface, "__init__", refused)
    monkeypatch.setattr(SurfaceGaussian, "__init__", refused)
    ctx = get_context(*instance, 0)
    delta, h, density = ctx.delta, ctx.axial_minimizer, ctx.axial_density
    assert type(h) is np.ndarray
    assert np.array_equal(h, np.eye(ctx.fine.n_bonds))
    assert np.array_equal(delta, curl_energy_form(ctx.fine))
    assert delta.flags.c_contiguous
    assert density.log_const == 0.0
    monkeypatch.undo()
    assert flow_states(*instance)[0].density \
        is get_context(*instance, 0).axial_density


def test_kernel_basis_orthonormal():
    r = rng()
    K = r.standard_normal((3, 8))
    B = kernel_basis(K)
    assert B.shape == (8, 5)
    assert np.allclose(B.T @ B, np.eye(5), atol=1e-12)
    assert np.abs(K @ B).max() < 1e-12 * np.abs(K).max()


def test_minimize_homogeneous_zero():
    # the fiber over A = 0 passes through the origin, where a homogeneous
    # quadratic is least: E = 0 puts every fiber there
    r = rng()
    F = random_spd(6, r)
    s = AffineSurface(r.standard_normal((2, 6)), np.zeros((2, 3)))
    assert np.abs(minimizer_map(F, s)).max() < 1e-12


def test_minimize_unconstrained():
    # with no constraints the surface Gaussian of exp(-1/2 <v,Fv> + <J,v>)
    # has covariance F^-1 and mean, its minimizer, F^-1 J
    r = rng()
    F = random_spd(5, r)
    J = r.standard_normal(5)
    cov = subspace_covariance(F, unconstrained(5))
    assert np.allclose(cov @ J, np.linalg.solve(F, J), atol=1e-10)


def test_minimize_first_order_optimality():
    r = rng()
    F = random_spd(7, r)
    K = r.standard_normal((3, 7))
    E = r.standard_normal((3, 2))
    s = AffineSurface(K, E)
    A = r.standard_normal(2)
    v = minimizer_map(F, s) @ A
    assert np.abs(K @ v - E @ A).max() < 1e-10
    # gradient orthogonal to the surface directions
    assert np.abs(s.basis.T @ F @ v).max() < 1e-9
    assert np.allclose(v, kkt_solve(F, K, np.zeros(7), E @ A), atol=1e-10)


def test_minimize_independent_of_particular_point():
    r = rng()
    F = random_spd(7, r)
    s1 = AffineSurface(r.standard_normal((3, 7)), r.standard_normal((3, 2)))
    # a different point of each fiber: the same surfaces
    s2 = copy.copy(s1)
    s2.lift = s1.lift + s1.basis @ r.standard_normal((s1.basis.shape[1], 2))
    assert np.allclose(minimizer_map(F, s1), minimizer_map(F, s2),
                       atol=1e-10)


def test_indefinite_raises():
    F = np.diag([1.0, -1.0])
    with pytest.raises(IndefiniteOnSurface):
        minimizer_map(F, AffineSurface(np.zeros((0, 2)), np.zeros((0, 1))))
    # but a constraint removing the bad direction makes it fine
    assert SurfaceGaussian(F, AffineSurface(np.array([[0.0, 1.0]]))) \
        .min_eig > 0
    assert SurfaceGaussian(F, AffineSurface(np.eye(2))).min_eig == np.inf


def test_zero_eigenvalue_is_not_positive_definite():
    # the boundary case: a form with an exact zero eigenvalue on the surface
    F = np.diag([1.0, 0.0])
    d = QuadraticDensity(F)
    s = AffineSurface(np.zeros((0, 2)), np.zeros((0, 1)))
    for integrate in (lambda: minimizer_map(F, s),
                      lambda: subspace_covariance(F, s),
                      lambda: log_partition(d, s),
                      lambda: push_constraint(d, s)):
        with pytest.raises(IndefiniteOnSurface):
            integrate()
    for error in (IndefiniteOnSurface, SingularOperator):
        with pytest.raises(error):
            positive_cholesky(np.diag([1.0, 0.0]), error)
    assert np.allclose(positive_cholesky(np.diag([4.0, 1.0])),
                       np.diag([2.0, 1.0]))


def test_cholesky_certificate_of_a_stack_quotes_the_smallest_eigenvalue():
    # a stack of Hermitian blocks, as of a block-Fourier symbol, one of
    # them indefinite: the certificate fails for the whole stack and quotes
    # the smallest eigenvalue over all blocks
    r = rng()
    blocks = np.stack([random_spd(4, r) + 0j for _ in range(5)])
    blocks[2, 1, 2] += 1j
    blocks[2, 2, 1] -= 1j
    assert np.allclose(positive_cholesky(blocks) @ positive_cholesky(blocks)
                       .conj().swapaxes(-1, -2), blocks)
    bad = blocks.copy()
    bad[3] -= 50.0 * np.eye(4)
    low = np.linalg.eigvalsh(bad).min()
    assert low < 0 and np.linalg.eigvalsh(bad[3]).min() == low
    with pytest.raises(SingularOperator,
                       match=f"smallest eigenvalue {low:g}"):
        positive_cholesky(bad, SingularOperator, "stack")


def test_density_stores_a_symmetric_form_read_only_without_a_copy():
    F = random_spd(6, rng())
    F = 0.5 * (F + F.T)
    d = QuadraticDensity(F)
    # the caller's array itself, read-only through the density only
    assert np.shares_memory(d.form, F) and np.array_equal(d.form, F)
    assert not d.form.flags.writeable and F.flags.writeable
    # a symmetric Fortran-ordered form is stored C-contiguous, as its
    # symmetric part was, so that the products with it round alike
    f = QuadraticDensity(np.asfortranarray(F))
    assert f.form.flags.c_contiguous and np.array_equal(f.form, F)
    # a round-off asymmetry is symmetrized into a new read-only array
    G = F.copy()
    G[0, 1] = np.nextafter(G[0, 1], np.inf)
    e = QuadraticDensity(G)
    assert not np.shares_memory(e.form, G) and not e.form.flags.writeable
    assert np.array_equal(e.form, 0.5 * (G + G.T))
    with pytest.raises(ValueError, match="not symmetric"):
        QuadraticDensity(np.triu(F))


def test_fibers_need_the_range_of_the_constraints():
    # dependent rows: every fiber is nonempty only if E maps into range(K)
    row = rng().standard_normal(5)
    K = np.vstack([row, row])
    with pytest.raises(SingularOperator, match="inconsistent"):
        AffineSurface(K, np.array([[1.0], [2.0]]))
    s = AffineSurface(K, np.array([[1.0], [1.0]]))
    assert s.rank == 1
    assert np.allclose(K @ s.lift, s.fiber, atol=1e-12)
    # without E, or with independent rows, there is nothing to refuse
    AffineSurface(K)
    AffineSurface(rng(4).standard_normal((2, 5)), np.array([[1.0], [2.0]]))


def _constraint_cases():
    r = rng(11)
    full = r.standard_normal((3, 8))
    deficient = r.standard_normal((4, 2)) @ r.standard_normal((2, 8))
    yield "full_rank", full, r.standard_normal((3, 2))
    yield "rank_deficient", deficient, deficient @ r.standard_normal((8, 3))
    yield "empty", np.zeros((0, 5)), np.zeros((0, 2))
    for name, lat in (("step_2_3_1", unit_torus(2, 3, 1)),
                      ("one_shot_2_3_1", fine_torus(2, 3, 1, 0))):
        yield (name, _builder_matrix(one_shot_constraints, lat, 1),
               one_shot_constraints(lat, 1).fiber)


@pytest.mark.parametrize("case", list(_constraint_cases()),
                         ids=lambda case: case[0])
def test_single_svd_matches_dense_references(case):
    # the one SVD per constraint matrix against the dense calls it replaced
    _, K, E = case
    A = rng(12).standard_normal(E.shape[1])

    def close(a, ref):
        assert a.shape == ref.shape
        scale = max(1.0, np.abs(ref).max()) if ref.size else 1.0
        assert np.abs(a - ref).max(initial=0.0) <= 1e-12 * scale

    surface = AffineSurface(K, E)
    plain = AffineSurface(K)
    pinv_ref = np.linalg.pinv(K, rcond=RANK_TOL)
    s = np.linalg.svd(K, compute_uv=False)
    rank_ref = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    assert surface.rank == plain.rank == rank_ref
    assert surface.log_gram == plain.log_gram
    log_gram_ref = 2.0 * np.sum(np.log(s[:rank_ref]))
    assert abs(surface.log_gram - log_gram_ref) \
        <= 1e-12 * max(1.0, abs(log_gram_ref))
    close(surface.basis @ surface.basis.T, np.eye(K.shape[1]) - pinv_ref @ K)
    assert np.array_equal(plain.basis, surface.basis)
    assert plain.lift is None and plain.fiber is None
    close(surface.lift, pinv_ref @ E)
    close(surface.lift @ A, np.linalg.lstsq(K, E @ A, rcond=None)[0])


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
    assert AffineSurface(d).rank < d.shape[0]
    for T, K in cases.values():
        # lstsq's rcond cut is kernel_basis's rank rule
        assert np.linalg.lstsq(K.T, T.T, rcond=RANK_TOL)[2] \
            == AffineSurface(K).rank
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
    assert abs(log_partition(d, unconstrained(1))
               - 0.5 * np.log(2 * np.pi / a)) < 1e-12


def test_log_partition_additivity():
    r = rng()
    F1, F2 = random_spd(3, r), random_spd(4, r)
    d1, d2 = QuadraticDensity(F1, 0.3), QuadraticDensity(F2, -1.1)
    dd = QuadraticDensity(np.block([[F1, np.zeros((3, 4))],
                                    [np.zeros((4, 3)), F2]]), 0.3 - 1.1)
    lp = log_partition(dd, unconstrained(7))
    assert abs(lp - log_partition(d1, unconstrained(3))
               - log_partition(d2, unconstrained(4))) < 1e-10


def test_log_partition_invariant_under_reorthonormalization():
    r = rng()
    d = QuadraticDensity(random_spd(8, r), 0.4)
    s1 = AffineSurface(r.standard_normal((3, 8)))
    # rotate the kernel basis: same surface, different orthonormal basis
    n = s1.basis.shape[1]
    q, _ = np.linalg.qr(r.standard_normal((n, n)))
    s2 = copy.copy(s1)
    s2.basis = s1.basis @ q
    assert abs(log_partition(d, s1) - log_partition(d, s2)) < 1e-10


def test_log_partition_dirac_row_scaling():
    # doubling a constraint row halves the dirac integral
    r = rng()
    d = QuadraticDensity(random_spd(5, r))
    K = r.standard_normal((2, 5))
    s1 = AffineSurface(K)
    s2 = AffineSurface(np.vstack([2 * K[0], K[1]]))
    assert abs(log_partition(d, s1) - log_partition(d, s2)
               - np.log(2.0)) < 1e-10


def test_log_partition_dirac_needs_full_rank():
    r = rng()
    d = QuadraticDensity(random_spd(5, r))
    row = r.standard_normal(5)
    s = AffineSurface(np.vstack([row, row]), np.ones((2, 1)))
    with pytest.raises(SingularOperator, match="Dirac"):
        log_partition(d, s)
    with pytest.raises(SingularOperator, match="Dirac"):
        push_constraint(d, s)


def test_log_partition_matches_brute_force_eigen():
    r = rng()
    d = QuadraticDensity(random_spd(6, r), 0.3)
    K = r.standard_normal((2, 6))
    s = AffineSurface(K)
    R = s.basis.T @ d.form @ s.basis
    w = np.linalg.eigvalsh(R)
    # the Dirac measure divides the surface integral by sqrt(det(K K^T))
    expect = (0.5 * len(w) * np.log(2 * np.pi) - 0.5 * np.sum(np.log(w))
              + d.log_const - 0.5 * np.linalg.slogdet(K @ K.T)[1])
    assert abs(log_partition(d, s) - expect) < 1e-10


def test_subspace_covariance_support_and_pullback():
    r = rng()
    F = random_spd(6, r)
    K = r.standard_normal((2, 6))
    s = AffineSurface(K)
    cov = subspace_covariance(F, s)
    assert np.abs(K @ cov).max() < 1e-10
    pulled = s.basis.T @ cov @ s.basis
    expect = np.linalg.inv(s.basis.T @ F @ s.basis)
    assert np.allclose(pulled, expect, atol=1e-10)


def test_covariance_identity_form():
    assert np.allclose(subspace_covariance(np.eye(4), unconstrained(4)),
                       np.eye(4), atol=1e-12)


def test_covariance_matches_kkt_solve():
    # cov J is the mean of the surface Gaussian tilted by e^<v,J> (so
    # log E e^<v,J> = 1/2 <J, cov J>): the argmin of 1/2 <v, F v> - <J, v>
    # on ker K, from the KKT system of that minimization
    r = rng()
    F = random_spd(5, r)
    K = r.standard_normal((2, 5))
    J = r.standard_normal(5)
    cov = subspace_covariance(F, AffineSurface(K))
    tilted = kkt_solve(F, K, J, np.zeros(2))
    assert np.abs(cov @ J - tilted).max() < 1e-10


def test_push_constraint_matches_pointwise_partition():
    # the pushed density evaluated at A equals the fiber integral at A
    r = rng()
    F = random_spd(7, r)
    d = QuadraticDensity(F, 0.3)
    K = r.standard_normal((3, 7))
    E = r.standard_normal((3, 2))
    pushed = push_constraint(d, AffineSurface(K, E))
    B = sla.null_space(K)
    R = B.T @ F @ B
    for A in (np.zeros(2), r.standard_normal(2), r.standard_normal(2)):
        # v = p + B y with K p = E A: the density of y is the translated
        # Gaussian exp(log d(p) - 1/2 <y, R y> + <B^T l, y>), l = -F p,
        # whose Dirac integral is closed form
        p = np.linalg.lstsq(K, E @ A, rcond=None)[0]
        lB = B.T @ (-F @ p)
        fiber = (log_value(d, p) + 0.5 * lB @ np.linalg.solve(R, lB)
                 + 0.5 * len(R) * np.log(2 * np.pi)
                 - 0.5 * np.linalg.slogdet(R)[1]
                 - 0.5 * np.linalg.slogdet(K @ K.T)[1])
        assert abs(log_value(pushed, A) - fiber) < 1e-9


def test_push_constraint_gaussian_marginal():
    # pushing with K = [I 0] is ordinary marginalization
    r = rng()
    F = random_spd(4, r)
    d = QuadraticDensity(F)
    K = np.hstack([np.eye(2), np.zeros((2, 2))])
    # fiber {v : v[:2] = A}: integrate out v[2:]
    pushed = push_constraint(d, AffineSurface(K, np.eye(2)))
    cov = np.linalg.inv(F)
    marg_form = np.linalg.inv(cov[:2, :2])
    A = r.standard_normal(2)
    expect = -0.5 * A @ marg_form @ A + log_value(pushed, np.zeros(2))
    assert abs(log_value(pushed, A) - expect) < 1e-9


def _former_push(density, surface):
    """The pushforward as formed before the reduced Gaussian type:
    W^T F W - FW^T M FW and its constant, with M = B R^-1 B^T the n x n
    inverse on the kernel basis."""
    F, B, W = density.form, surface.basis, surface.lift
    R = B.T @ F @ B
    chol = positive_cholesky(0.5 * (R + R.T))
    M = B @ sla.cho_solve((chol, True), B.T)
    FW = F @ W
    phi = W.T @ FW - FW.T @ M @ FW
    const = (density.log_const + 0.5 * chol.shape[0] * np.log(2.0 * np.pi)
             - np.sum(np.log(np.diag(chol))) - 0.5 * surface.log_gram)
    return 0.5 * (phi + phi.T), const, np.abs(W.T @ FW).max()


def _push_cases():
    r = rng(21)
    for n, m, c in ((7, 3, 2), (12, 5, 4), (9, 1, 1)):
        K = r.standard_normal((m, n))
        yield (f"random_{n}_{m}", QuadraticDensity(random_spd(n, r), 0.7),
               AffineSurface(K, r.standard_normal((m, c))))
    # the flow's own forms on its step surfaces
    for inst in ((2, 3, 2), (3, 3, 1)):
        for state in flow_states(*inst)[:-1]:
            yield (f"flow_{inst}_{state.level}",
                   QuadraticDensity(state.density.form, 0.2),
                   one_shot_constraints(state.lattice, 1))


@pytest.mark.parametrize("case", list(_push_cases()), ids=lambda c: c[0])
def test_push_matches_the_former_pushforward(case):
    # H^T F H equals W^T F W - FW^T M FW, since M F M = M, relative to the
    # terms the former formula subtracts (the last step of (3,3,1) pushes
    # to a zero form); the constant is the log-partition of the fiber
    # over A = 0
    _, density, surface = case
    pushed = push_constraint(density, surface)
    phi, const, phi_scale = _former_push(density, surface)
    assert np.abs(pushed.form - phi).max() <= 1e-12 * phi_scale
    assert abs(pushed.log_const - const) <= 1e-12 * max(1.0, abs(const))


def test_one_reduction_serves_every_output(monkeypatch):
    # the reduced form is formed once and factored once, however many
    # outputs read it; a second read of an output computes nothing and
    # returns the same object, and the Gaussian keeps no factor
    r = rng(5)
    F = random_spd(6, r)
    g = SurfaceGaussian(F, AffineSurface(r.standard_normal((2, 6)),
                                         r.standard_normal((2, 1))))
    reduced = g.reduced
    calls = Counter()
    for name in ("cholesky", "eigvalsh", "solve"):
        def counted(*args, _f=getattr(np.linalg, name), _n=name, **kwargs):
            calls[_n] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    names = ("minimizer", "covariance", "log_partition", "push", "min_eig")
    first = [getattr(g, n) for n in names]
    assert calls == {"cholesky": 1, "eigvalsh": 1, "solve": 2}
    assert all(getattr(g, n) is out for n, out in zip(names, first))
    assert calls == {"cholesky": 1, "eigvalsh": 1, "solve": 2}
    assert g.reduced is reduced and g.form is F
    held = [v for v in vars(g).values() if isinstance(v, np.ndarray)]
    assert all(any(v is a for a in (F, reduced, g.minimizer, g.covariance))
               for v in held)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_minimizer_feasible_property(seed):
    r = np.random.default_rng(seed)
    F = random_spd(6, r)
    K = r.standard_normal((2, 6))
    E = r.standard_normal((2, 3))
    H = minimizer_map(F, AffineSurface(K, E))
    assert np.abs(K @ H - E).max() < 1e-8


def _builder_surfaces(dim, L, levels):
    """(name, lattice, surface, K, E, builder K) of every lattice-keyed
    constraint builder of one instance: the flow's step surfaces, the
    one-shot (axial) surfaces at k = 0 .. levels, and the two winding
    stacks of the last level.  K and E are assembled here from the
    averaging matrices; the builder K is restacked from the builder's own
    inputs."""
    def stacked(top, lat):
        """[top; tau] for tau the path averages of lat, and E = [I; 0]."""
        top = top.toarray()
        tau = av.path_average_matrix(lat).matrix.toarray()
        return np.vstack([top, tau]), np.eye(len(top) + len(tau), len(top))

    for j in range(levels):
        lat = unit_torus(dim, L, levels - j)
        yield (f"step_{j}", lat, one_shot_constraints(lat, 1),
               *stacked(av.bond_average_matrix(lat, 1), lat),
               _builder_matrix(one_shot_constraints, lat, 1))
    for k in range(levels + 1):
        fine = fine_torus(dim, L, k, levels - k)
        f = one_shot_constraints(fine, k)
        K = _builder_matrix(one_shot_constraints, fine, k)
        yield f"one_shot_{k}", fine, f, K, np.array(f.fiber), K
    lat = unit_torus(dim, L, 1)
    K, _ = stacked(av.toron_average_matrix(lat), lat)
    yield ("winding", lat, _one_shot_winding_constraints(lat, 1), K, None,
           _builder_matrix(_one_shot_winding_constraints, lat, 1))
    fine = fine_torus(dim, L, levels, 0)
    f = _one_shot_winding_constraints(fine, levels)
    K = _builder_matrix(_one_shot_winding_constraints, fine, levels)
    yield "one_shot_winding", fine, f, K, None, K


@pytest.mark.parametrize("dim,L,levels",
                         [(2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 3, 1)])
def test_cached_factor_matches_fresh_factorization(dim, L, levels):
    # a cached surface must reproduce, bit for bit, the surface factored
    # afresh from K and E; the step and winding surfaces come from the
    # one-shot builders at one level, whose K is [Q_b; tau] (or
    # [toron; tau]) exactly
    for name, lat, cached, K, E, built in _builder_surfaces(dim, L, levels):
        assert np.array_equal(built, K), name
        assert cached.n_rows == K.shape[0], name
        fresh = AffineSurface(K, E)
        assert np.array_equal(cached.basis, fresh.basis), name
        assert (cached.rank, cached.log_gram) \
            == (fresh.rank, fresh.log_gram), name
        form = curl_energy_form(lat)
        density = QuadraticDensity(form)
        assert log_partition(density, cached) \
            == log_partition(density, fresh), name
        if E is None:
            assert cached.fiber is None, name
            continue
        assert np.array_equal(cached.fiber, E), name
        assert np.array_equal(cached.lift, fresh.lift), name
        p_cached = push_constraint(density, cached)
        p_fresh = push_constraint(density, fresh)
        assert np.array_equal(p_cached.form, p_fresh.form), name
        assert p_cached.log_const == p_fresh.log_const, name
        assert np.array_equal(minimizer_map(form, cached),
                              minimizer_map(form, fresh)), name


@pytest.mark.parametrize("dim,L,levels", [(2, 3, 2), (2, 5, 1), (3, 3, 1)])
def test_surface_builders_do_not_depend_on_the_spacing(dim, L, levels):
    # on a torus of spacing L^-k the averaging matrices the builders stack,
    # and the K and E of each builder, equal exactly those of the
    # unit-spacing torus with the same sites per side; so the cached
    # builders return one surface for both
    def same(a, b):
        return a.shape == b.shape and np.array_equal(a.toarray(),
                                                     b.toarray())

    unit = unit_torus(dim, L, levels)
    builders = ((one_shot_constraints, range(levels + 1)),
                (average_constraints, range(levels + 1)),
                (_one_shot_winding_constraints, (levels,)))
    for k in range(1, levels + 1):
        fine = fine_torus(dim, L, k, levels - k)
        assert fine.spacing != unit.spacing
        assert fine.n_side == unit.n_side
        for j in range(levels + 1):
            assert same(av.bond_average_matrix(fine, j),
                        av.bond_average_matrix(unit, j)), (k, j)
            assert same(av.axial_constraint_stack(fine, j).matrix,
                        av.axial_constraint_stack(unit, j).matrix), (k, j)
        assert same(av.toron_average_full_matrix(fine, levels),
                    av.toron_average_full_matrix(unit, levels)), k
        for builder, args in builders:
            for j in args:
                name = (builder.__name__, k, j)
                on_fine = builder.__wrapped__(fine, j)
                on_unit = builder.__wrapped__(unit, j)
                assert np.array_equal(_builder_matrix(builder, fine, j),
                                      _builder_matrix(builder, unit, j)), name
                assert np.array_equal(on_fine.basis, on_unit.basis), name
                assert (on_fine.n_rows, on_fine.rank, on_fine.log_gram) \
                    == (on_unit.n_rows, on_unit.rank, on_unit.log_gram), name
                if on_unit.lift is None:
                    assert on_fine.lift is None, name
                else:
                    assert np.array_equal(on_fine.lift, on_unit.lift), name
                if on_unit.fiber is None:
                    assert on_fine.fiber is None, name
                else:
                    assert np.array_equal(on_fine.fiber, on_unit.fiber), name
                assert builder(fine, j) is builder(unit, j), name


def test_cached_factors_are_read_only_and_shared():
    # a surface holds no K, only its row count
    f = one_shot_constraints(unit_torus(2, 3, 1), 1)
    assert not hasattr(f, "matrix") and f.n_rows == f.fiber.shape[0]
    for a in (f.fiber, f.basis, f.lift):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    # the caller's raw K and E keep their own flags
    K, E = np.eye(3), np.eye(3)
    AffineSurface(K, E)
    K[0, 0] = E[0, 0] = 2.0
    # the axial minimizer factors the one-shot surface of its level (level
    # 0 has none)
    for level in (1, 2):
        ctx = get_context(2, 3, 2, level)
        assert ctx.axial_surface is one_shot_constraints(ctx.fine, level)
