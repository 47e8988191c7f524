"""Regularized Green's functions, gauge projectors, minimizers, and the
fluctuation-covariance representation identities.

A GaugeContext fixes a level k of the flow on an N-level torus: the fine
lattice has spacing L**-k and the coarse (unit) lattice is its k-fold
blocking.  `get_context` caches one per instance level until a run moves
to the next instance, and checks the resource cap on every fetch.  The
regulator a and the gauge-fixing weight alpha are arguments of the members
that read them, not part of the context: the identities hold for every
value.  On top of it live

* the scalar Green's function G = (-Lap + a Q^T Q)^-1,
* the projector R onto Lap(ker Q),
* the constrained minimizers of the curl energy (axial constraints) and of
  the curl energy plus the projected-divergence penalty (Feynman form),
* the effective coarse form Delta and the fluctuation covariance
  (C^T Delta C + x)^-1 in the in-block/non-central parametrization,
* the bond-space Green's functions whose compression reproduces that
  covariance, and the integral representation of its square root.

The averaging and recovery maps of a context (`scalar_average`,
`bond_average`, their `_next` versions, `one_plus_grad_recovery` and
`compression`) are the CSR matrices of the cached `averaging` builders,
never densified: a CSR map times a dense matrix is a dense ndarray.  Their
Gram matrices are formed once per context, in coordinate (COO) form, and
added into the dense operators on their stored entries.  The gradient,
the Laplacian, the Green's functions, projectors, minimizers and effective
forms are dense ndarrays.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.special import roots_legendre

from . import averaging as av
from .fields import _guard, curl_energy_form, grad_matrix
from .gaussian import (RANK_TOL, AffineSurface, IndefiniteOnSurface,
                       SingularOperator, minimizer_map, positive_cholesky,
                       subspace_covariance)
from .lattice import Lattice, LatticeSpec, build_lattice, instance_cache


DECAY_FLOOR = 1e-13   # decay classes peaking at or below it are left unfitted


def sym_norm2(m: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix: the largest |eigenvalue| of its
    symmetric part, one eigvalsh instead of the SVD of norm(m, 2)."""
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    return float(max(-w[0], w[-1]))


def _add_sparse(dense: np.ndarray, scale: float, m: sp.coo_matrix):
    """dense += scale * m in place, on the stored entries of m (a sparse
    product, so no entry repeats); equal to the dense sum, whose other
    entries add zeros."""
    dense[m.row, m.col] += scale * m.data


def _guard_level(dim, L, n_levels, level):
    """The cap on the bond count of an instance level's fine lattice."""
    _guard(LatticeSpec(dim, L, level, n_levels - level).n_bonds)


class GaugeContext:
    """Operators of one RG level: fine torus at spacing L**-k, unit blocking."""

    def __init__(self, dim, L, n_levels, level, /):
        # level == n_levels is allowed: the unit lattice degenerates to a
        # single site and only the minimizer machinery remains meaningful
        if not 0 <= level <= n_levels:
            raise ValueError("level must satisfy 0 <= level <= n_levels")
        self.dim = dim
        self.L = L
        self.n_levels = n_levels
        self.level = level
        _guard_level(dim, L, n_levels, level)
        self.fine = build_lattice(LatticeSpec(dim, L, level, n_levels - level))
        self.unit = build_lattice(LatticeSpec(dim, L, 0, n_levels - level))
        self._by_a = {}     # (name, a) -> matrix that depends on a

    def _per_a(self, name, a, build):
        """The matrix `name` at regulator a, built once per value of a."""
        key = (name, a)
        if key not in self._by_a:
            self._by_a[key] = build()
        return self._by_a[key]

    # -- raw ingredients ----------------------------------------------------

    @cached_property
    def weight(self) -> float:
        """Inner-product weight eta**dim of the fine lattice."""
        return self.fine.spacing**self.dim

    @cached_property
    def grad_fine(self) -> np.ndarray:
        return grad_matrix(self.fine).toarray()

    @cached_property
    def lap_fine(self) -> np.ndarray:
        """Matrix of -Laplacian on fine scalars (positive semidefinite)."""
        return self.grad_fine.T @ self.grad_fine

    @cached_property
    def scalar_average(self) -> sp.csr_matrix:
        """Q: fine scalars -> unit scalars (k levels of blocking)."""
        return av.scalar_average_matrix(self.fine, self.level)

    @cached_property
    def scalar_average_adj(self) -> sp.csr_matrix:
        """Weighted adjoint of Q; equals injection constant on blocks."""
        return (float(self.L) ** (self.level * self.dim)
                * self.scalar_average.T).tocsr()

    @cached_property
    def bond_average(self) -> sp.csr_matrix:
        """Bond blocking fine -> unit (identity at level 0)."""
        return av.bond_average_matrix(self.fine, self.level)

    @cached_property
    def bond_average_next(self) -> sp.csr_matrix:
        """Bond blocking fine -> one level above the unit lattice."""
        return av.bond_average_matrix(self.fine, self.level + 1)

    @cached_property
    def bond_average_next_gram(self) -> sp.coo_matrix:
        """Q_next^T Q_next on fine bonds: the average regulator."""
        qn = self.bond_average_next
        return (qn.T @ qn).tocoo()

    @cached_property
    def scalar_average_next(self) -> sp.csr_matrix:
        return av.scalar_average_matrix(self.fine, self.level + 1)

    @property
    def axial_surface(self) -> AffineSurface:
        """The surface of the axial minimization (averages + stack), shared
        with the one-shot RG integration at this level."""
        return one_shot_constraints(self.fine, self.level)

    @cached_property
    def one_plus_grad_recovery(self) -> sp.csr_matrix:
        """I + grad o recovery on unit bonds."""
        gr = grad_matrix(self.unit) @ av.scalar_recovery_matrix(self.unit)
        return sp.identity(self.unit.n_bonds, format="csr") + gr

    @cached_property
    def compression(self) -> sp.csr_matrix:
        """(I + grad o recovery) Q_b: fine bonds -> unit bonds, the map that
        compresses the bond Green's functions into the covariance."""
        return self.one_plus_grad_recovery @ self.bond_average

    @cached_property
    def chi_star(self) -> np.ndarray:
        return av.fluctuation_split(self.unit).chi_star

    @cached_property
    def fluct_basis(self) -> np.ndarray:
        return av.fluctuation_basis(self.unit)

    # -- scalar Green's function and projectors -----------------------------

    def _green_for(self, q, q_adj, a: float) -> np.ndarray:
        if a <= 0:
            raise SingularOperator(
                "regulator a must be positive: constants are in ker(-Lap)")
        op = self.lap_fine + (a * q_adj @ q).toarray()
        chol = positive_cholesky(0.5 * (op + op.T), SingularOperator,
                                 "-Lap + a Q^T Q")
        return sla.cho_solve((chol, True), np.eye(op.shape[0]))

    def green_scalar(self, a: float = 1.0) -> np.ndarray:
        """G = (-Lap + a Q^T Q)^-1 on fine scalars."""
        return self._per_a("green", a, lambda: self._green_for(
            self.scalar_average, self.scalar_average_adj, a))

    @staticmethod
    def _projectors_for(q, q_adj, g):
        """R = I - P for P the orthogonal projector onto range(G Q^T), G the
        Green's function of Q."""
        qg = q @ g
        core = qg @ g @ q_adj
        p = g @ q_adj @ np.linalg.solve(core, qg)
        return np.eye(p.shape[0]) - 0.5 * (p + p.T)

    def proj_div(self, a: float = 1.0) -> np.ndarray:
        """R: orthogonal projector onto Lap(ker Q)."""
        return self._per_a("proj_div", a, lambda: self._projectors_for(
            self.scalar_average, self.scalar_average_adj,
            self.green_scalar(a)))

    def proj_div_next(self, a: float = 1.0) -> np.ndarray:
        """R built from the (k+1)-level scalar average."""
        q = self.scalar_average_next
        q_adj = (float(self.L) ** ((self.level + 1) * self.dim) * q.T).tocsr()
        return self._per_a("proj_div_next", a, lambda: self._projectors_for(
            q, q_adj, self._green_for(q, q_adj, a)))

    # -- minimizers and the effective form ----------------------------------

    @cached_property
    def axial_minimizer(self) -> np.ndarray:
        """Unit bonds -> fine bonds: least curl energy on the axial surface."""
        return minimizer_map(curl_energy_form(self.fine), self.axial_surface)

    @cached_property
    def div_penalty(self) -> np.ndarray:
        """The projected-divergence penalty w grad R grad^T on fine bonds,
        at gauge-fixing weight alpha = 1."""
        dg = self.grad_fine
        return self.weight * dg @ self.proj_div() @ dg.T

    def feynman_minimizer(self, alpha: float = 1.0) -> np.ndarray:
        """Least curl energy + projected-divergence penalty, averages fixed."""
        form = curl_energy_form(self.fine) + self.div_penalty / alpha
        return minimizer_map(form, average_constraints(self.fine, self.level))

    def effective_form(self, which: str = "axial",
                       alpha: float = 1.0) -> np.ndarray:
        """Delta: the curl energy of the minimizer, as a unit-bond form;
        alpha is the gauge-fixing weight of the Feynman minimizer."""
        h = {"axial": lambda: self.axial_minimizer,
             "feynman": lambda: self.feynman_minimizer(alpha)}[which]()
        m = h.T @ curl_energy_form(self.fine) @ h
        return 0.5 * (m + m.T)

    @cached_property
    def delta(self) -> np.ndarray:
        return self.effective_form("axial")

    # -- fluctuation covariance ---------------------------------------------

    @cached_property
    def reduced_delta(self) -> np.ndarray:
        """C^T Delta C on the fluctuation parameters."""
        C = self.fluct_basis
        m = C.T @ self.delta @ C
        return 0.5 * (m + m.T)

    def fluct_cov(self, x: float = 0.0) -> np.ndarray:
        """(C^T Delta C + x)^-1; x = 0 gives the fluctuation covariance."""
        n = self.reduced_delta.shape[0]
        chol = positive_cholesky(self.reduced_delta + x * np.eye(n),
                                 IndefiniteOnSurface,
                                 "reduced fluctuation form")
        return sla.cho_solve((chol, True), np.eye(n))

    # -- scalar potential for the covariance representation -----------------

    def lambda0_map(self, a: float = 1.0) -> np.ndarray:
        """Unit scalars -> fine scalars solving Q lambda = mu, R Lap lambda = 0."""
        g = self.green_scalar(a)
        q, qt = self.scalar_average, self.scalar_average_adj
        g2qt = g @ g @ qt
        core = q @ g2qt
        first = g2qt @ np.linalg.solve(
            core, np.eye(core.shape[0]) - a * q @ g @ qt)
        return first + a * g @ qt

    # -- bond-space Green's functions ---------------------------------------

    @cached_property
    def x_gram(self) -> sp.coo_matrix:
        """X^T X on fine bonds, for X = chi* (I + grad recovery) Q_b the
        gauge-fixed compression."""
        xm = sp.diags(self.chi_star) @ self.compression
        return (xm.T @ xm).tocoo()

    def fine_green(self, x: float = 0.0, a: float = 1.0) -> np.ndarray:
        """Inverse of the regularized bond operator used in the covariance
        representation: curl part + projected divergence part + average
        regulator a + x times the gauge-fixed compression term."""
        dg = self.grad_fine
        op = curl_energy_form(self.fine) \
            + self.weight * dg @ self.proj_div_next(a) @ dg.T
        _add_sparse(op, a, self.bond_average_next_gram)
        if x:
            _add_sparse(op, x, self.x_gram)
        chol = positive_cholesky(0.5 * (op + op.T), SingularOperator,
                                 "regularized bond operator")
        return sla.cho_solve((chol, True), np.eye(op.shape[0]))

    def tilde_green(self, x: float = 0.0, a: float = 1.0) -> np.ndarray:
        """Green's function constrained to the kernel of the next averaging."""
        g = self.fine_green(x, a)
        qn = self.bond_average_next
        # sparse times dense only: g Q^T = (Q g^T)^T
        qng, gqt = qn @ g, (qn @ g.T).T
        out = g - gqt @ np.linalg.solve(qn @ gqt, qng)
        return 0.5 * (out + out.T)

    def rep_check(self, xs=(0.0,), a: float = 1.0) -> dict:
        """Relative residuals of C (C^T Delta C + x)^-1 C^T against the
        compressed Green's-function representation at regulator a, per x."""
        C = self.fluct_basis
        comp = self.compression
        out = {}
        for x in xs:
            lhs = C @ self.fluct_cov(x) @ C.T
            # the reduced Green's function is symmetric
            rhs = comp @ (comp @ self.tilde_green(x, a)).T
            out[x] = sym_norm2(lhs - rhs) / sym_norm2(lhs)
        return out

    # -- square root of the fluctuation covariance --------------------------

    def cov_sqrt_spectral(self) -> np.ndarray:
        w, v = np.linalg.eigh(self.reduced_delta)
        if w[0] <= 0:
            raise IndefiniteOnSurface("reduced form not positive definite")
        return (v / np.sqrt(w)) @ v.T

    def cov_sqrt_quadrature(self, npoints: int = 200) -> np.ndarray:
        """Evaluate (1/pi) int_0^inf x^{-1/2} (S + x)^-1 dx for S the reduced
        form, via x = tan^2(theta) and Gauss-Legendre on (0, pi/2)."""
        s = self.reduced_delta
        n = s.shape[0]
        nodes, weights = roots_legendre(npoints)
        theta = 0.25 * np.pi * (nodes + 1.0)
        out = np.zeros_like(s)
        for t, w in zip(theta, weights):
            out += w * np.linalg.inv(np.cos(t) ** 2 * s
                                     + np.sin(t) ** 2 * np.eye(n))
        return (0.25 * np.pi) * (2.0 / np.pi) * out

    # -- change of gauge (Feynman vs Landau) --------------------------------

    @cached_property
    def div_range_basis(self) -> np.ndarray:
        """Orthonormal basis of the range of R (columns)."""
        w, v = np.linalg.eigh(self.proj_div())
        return v[:, w > 0.5]

    def gauge_bijection_matrix(self) -> np.ndarray:
        """The square map lambda -> (Q lambda, R(-Lap) lambda)."""
        u = self.div_range_basis
        return np.vstack([self.scalar_average.toarray(),
                          u.T @ self.proj_div() @ self.lap_fine])

    def feynman_to_landau(self) -> np.ndarray:
        """The substitution map A -> A - grad G R div A."""
        dg = self.grad_fine
        return np.eye(self.fine.n_bonds) \
            - dg @ self.green_scalar() @ self.proj_div() @ dg.T


@instance_cache
def average_constraints(fine: Lattice, k: int) -> AffineSurface:
    """The k-fold block average fixed to the coarse field A, K = Q_b and
    E = I: the surface of the Feynman minimizer."""
    qb = av.bond_average_matrix(fine, k)
    return AffineSurface(qb, np.eye(qb.shape[0]))


@instance_cache
def one_shot_constraints(fine: Lattice, k: int) -> AffineSurface:
    """The level-k axial surface on the fine lattice: the k-fold block
    average fixed to the coarse field A and the hierarchical path averages
    to zero, K = [Q_b; stack] and E = [I; 0].  At k = 1 it is the surface
    of one blocking step of the flow."""
    stack = av.axial_constraint_stack(fine, k).matrix
    if not stack.shape[0]:
        # no path averages below the unit scale (k = 0): the axial surface
        # is the block-average one
        return average_constraints(fine, k)
    qb = av.bond_average_matrix(fine, k)
    K = sp.vstack([qb, stack])
    return AffineSurface(K, np.eye(K.shape[0], qb.shape[0]))


@instance_cache
def _get_context(dim, L, n_levels, level, /) -> GaugeContext:
    return GaugeContext(dim, L, n_levels, level)


def get_context(dim, L, n_levels, level, /) -> GaugeContext:
    """The cached context of an instance level, guarded on every fetch."""
    _guard_level(dim, L, n_levels, level)
    return _get_context(dim, L, n_levels, level)


def change_of_gauge_check(ctx: GaugeContext, coarse_field: np.ndarray) -> dict:
    """Feynman vs Landau gauge: the substitution map carries the moments of
    the penalized Gaussian (averages fixed) to those of the Gaussian on the
    divergence-projected surface.

    Returns the dimension check of the underlying scalar bijection, its
    condition number, whether it is invertible (square, with a condition
    number below 1 / RANK_TOL, the one rank cut), and the relative
    mean/covariance residuals.
    """
    m = ctx.gauge_bijection_matrix()
    square = m.shape[0] == m.shape[1] == ctx.fine.n_sites
    cond = float(np.linalg.cond(m)) if square else np.inf
    dg = ctx.grad_fine
    curl = curl_energy_form(ctx.fine)
    form_f = curl + ctx.div_penalty
    surf_f = average_constraints(ctx.fine, ctx.level)
    mean_f = minimizer_map(form_f, surf_f) @ coarse_field
    cov_f = subspace_covariance(form_f, surf_f)
    # Landau surface: averages fixed, divergence-range components zero
    qb = ctx.bond_average.toarray()
    k_landau = np.vstack([qb, ctx.div_range_basis.T @ dg.T])
    surf_l = AffineSurface(k_landau, np.eye(k_landau.shape[0], qb.shape[0]))
    mean_l = minimizer_map(curl, surf_l) @ coarse_field
    cov_l = subspace_covariance(curl, surf_l)
    t = ctx.feynman_to_landau()
    mean_res = np.linalg.norm(t @ mean_f - mean_l) \
        / max(np.linalg.norm(mean_l), 1e-300)
    cov_res = sym_norm2(t @ cov_f @ t.T - cov_l) \
        / max(sym_norm2(cov_l), 1e-300)
    n_div = int(np.round(np.trace(ctx.proj_div())))
    return {
        "square": square,
        "condition": cond,
        "invertible": square and cond < 1 / RANK_TOL,
        "dims_match": ctx.unit.n_sites + n_div == ctx.fine.n_sites,
        "mean_residual": float(mean_res),
        "covariance_residual": float(cov_res),
    }


def _element_points(lattice, kind: str) -> np.ndarray:
    """Physical coordinates of sites, or of bond midpoints."""
    if kind == "site":
        return np.asarray(lattice.sites, dtype=float) * lattice.spacing
    pts = np.asarray(lattice.sites[lattice.bond_sites], dtype=float)
    pts[np.arange(lattice.n_bonds), lattice.bond_axes] += 0.5
    return pts * lattice.spacing


def decay_profile(matrix: np.ndarray, row_lattice, col_lattice,
                  kind: str = "bond") -> dict:
    """Max |kernel entry| per torus-distance class and the fitted log-slope.

    Distances are Euclidean between element positions (bond midpoints by
    default, sites with kind="site") in physical units with the
    minimum-image convention; both lattices must cover the same torus.
    """
    period = row_lattice.n_side * row_lattice.spacing
    if abs(col_lattice.n_side * col_lattice.spacing - period) > 1e-12:
        raise ValueError("lattices cover different tori")
    rp = _element_points(row_lattice, kind)
    cp = _element_points(col_lattice, kind)
    diff = rp[:, None, :] - cp[None, :, :]
    diff -= period * np.round(diff / period)
    dist = np.sqrt((diff**2).sum(axis=2))
    # one class per distance rounded to 9 digits, rounded once per value
    uniq, inverse = np.unique(dist, return_inverse=True)
    keys, key_of = np.unique([round(u, 9) for u in uniq], return_inverse=True)
    cls = key_of[inverse.ravel()]
    peak = np.zeros(len(keys))
    np.maximum.at(peak, cls, np.abs(matrix).ravel())
    table = list(zip(keys, peak, np.bincount(cls).tolist()))
    xs = np.array([d for d, mx, _ in table if mx > DECAY_FLOOR])
    ys = np.array([np.log(mx) for _, mx, _ in table if mx > DECAY_FLOOR])
    if len(xs) >= 2:
        slope, intercept = np.polyfit(xs, ys, 1)
        corr = float(np.corrcoef(xs, ys)[0, 1])
    else:
        slope, intercept, corr = 0.0, 0.0, 0.0
    return {"table": table, "slope": float(slope), "correlation": corr}
