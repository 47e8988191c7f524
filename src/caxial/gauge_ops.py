"""Regularized Green's functions, gauge projectors, minimizers, and the
fluctuation-covariance representation identities.

A GaugeContext fixes a level k of the flow on an N-level torus: the fine
lattice has spacing L**-k and the coarse (unit) lattice is its k-fold
blocking.  `get_context` caches one per instance level until a run moves
to the next instance; it checks no resource cap, since `cli` checks each
check's declared cost first.  The regulator a and the gauge-fixing weight
alpha are arguments of the members that read them, not part of the
context: the identities hold for every value.  What the checks of a
level share is an `instance_cache` member, keyed on the context and its
argument (regulator a, node count, alpha, shift) if any.  Its Gaussians,
the curl energy on the axial surface, Delta on one blocking step and the
Feynman form per alpha, are each reduced once.  The caches keep the
outputs of the axial and Feynman Gaussians, not their reduced forms; the
step Gaussian is kept whole, as `step`, for the flow steps through it at
level 0.  Their
surfaces come from `average_constraints` and `one_shot_constraints`,
cached on the spacing-free shape of the lattice: the averaging matrices
do not depend on the spacing, so the level-k axial surface on the fine
lattice is the one of the unit torus with as many sites per side, which
the flow's step surfaces share.  Level 0 is the curl Gaussian itself:
zero blockings average nothing, so the axial minimizer is the identity
and the density the curl form with log Z_0 = 0.  No axial surface and no
axial or Feynman Gaussian is built there; the Feynman minimizer is the
axial one and no penalty is built.  On top of it live

* the scalar Green's function G = (-Lap + a Q^T Q)^-1,
* the projector R onto Lap(ker Q),
* the constrained minimizers of the curl energy (axial constraints) and of
  the curl energy plus the projected-divergence penalty (Feynman form),
* the effective coarse form Delta (the axial pushforward), the one-shot
  density and the fluctuation covariance (C^T Delta C + x)^-1 in the
  in-block/non-central parametrization,
* the bond-space Green's functions whose compression reproduces that
  covariance, and the integral representation of its square root.

The averaging maps of a context (`scalar_average`, `bond_average` and
their `_next` versions) are the CSR matrices of the cached `averaging`
builders, never densified: a CSR map times a dense matrix is a dense
ndarray.  The gradient, the Laplacian, the scalar Green's function,
projectors, minimizers and effective forms are dense ndarrays.  The
covariance representation runs on block-Fourier symbols instead: every
operator in it commutes with the translations by one block of the next
averaging, so `fine_operator`, `fine_green` and `tilde_green` return
symbol stacks, one small block per momentum, of shape (grid,)*dim +
(b, b) for b bonds per block (the float matrix itself when the torus is
one block).  `fields.block_symbol` reads the symbols, with its exact
translation test, off the CSR builders (ext_d, grad, the next scalar and
bond averages, the bond average, the scalar recovery and diag(chi*)) and
off the fluctuation basis, which is built block by block; above level 0
also off Delta, a computed form, which passes the test only on one
block.  The curl form, the regularized Green's function and projector of
the next scalar average, the regularized bond operator, its Green's
functions, the compression and both sides of `rep_check` are products,
sums and inverses taken block by block.
"""

from __future__ import annotations

import numpy as np

from . import averaging as av
from . import csr
from .csr import CSR
from .fields import (BOND, PLAQUETTE, SITE, block_symbol, curl_energy_form,
                     ext_d_matrix, grad_matrix, laplacian_matrix)
from .gaussian import (RANK_TOL, AffineSurface, IndefiniteOnSurface,
                       QuadraticDensity, SingularOperator, SurfaceGaussian,
                       positive_cholesky)
from .lattice import (Lattice, LatticeSpec, build_lattice, instance_cache,
                      shape_cache)


DECAY_FLOOR = 1e-13   # decay classes peaking at or below it are left unfitted
NPOINTS = 200         # square-root quadrature nodes
# the Gauss-Legendre rules (nodes, weights) of the square-root quadrature
# and of its convergence check, built once, outside every check
RULE = np.polynomial.legendre.leggauss(NPOINTS)
HALF_RULE = np.polynomial.legendre.leggauss(NPOINTS // 2)


def _h(m: np.ndarray) -> np.ndarray:
    """The adjoint of a matrix, or of each block of a symbol stack: the
    conjugate transpose of the last two axes (a view when real)."""
    m = m.swapaxes(-1, -2)
    return m.conj() if np.iscomplexobj(m) else m


def sym_norm2(m: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix, or of the block-circulant
    operator of a symbol stack: the largest |eigenvalue| of its Hermitian
    part over all blocks, one (batched) eigvalsh instead of the SVD of
    norm(m, 2)."""
    w = np.linalg.eigvalsh(0.5 * (m + _h(m)))
    return float(max(-w[..., 0].min(), w[..., -1].max()))


def _spd_inverse(op: np.ndarray, error, what: str) -> np.ndarray:
    """op^-1, or the inverse of each block of a symbol stack, once
    positive_cholesky(op, ...) certifies op positive definite; its factor
    is dropped before the inverse is formed."""
    positive_cholesky(op, error, what)
    return np.linalg.inv(op)


def _scalar_green(lap: np.ndarray, reg: np.ndarray, a: float) -> np.ndarray:
    """(-Lap + a Q^T Q)^-1 from -Lap and reg = a Q^T Q, dense or as
    symbols, for a positive regulator a."""
    if a <= 0:
        raise SingularOperator(
            "regulator a must be positive: constants are in ker(-Lap)")
    op = lap + reg
    return _spd_inverse(0.5 * (op + _h(op)), SingularOperator,
                        "-Lap + a Q^T Q")


def _projectors_for(q, q_adj, g):
    """R = I - P for P the orthogonal projector onto range(G Q^T), G the
    Green's function of Q; dense, or per block of symbols."""
    qg = q @ g
    core = qg @ g @ q_adj
    p = g @ q_adj @ np.linalg.solve(core, qg)
    return np.eye(p.shape[-1]) - 0.5 * (p + _h(p))


class GaugeContext:
    """Operators of one RG level: fine torus at spacing L**-k, unit blocking."""

    def __init__(self, dim, L, n_levels, level, /):
        # level == n_levels is allowed: the unit lattice degenerates to a
        # single site and only the minimizer machinery remains meaningful
        if not 0 <= level <= n_levels:
            raise ValueError("level must satisfy 0 <= level <= n_levels")
        self.dim, self.L, self.n_levels, self.level = dim, L, n_levels, level
        self.fine = build_lattice(LatticeSpec(dim, L, level, n_levels - level))
        self.unit = build_lattice(LatticeSpec(dim, L, 0, n_levels - level))
        self.weight = self.fine.spacing**dim    # inner-product weight

    # -- raw ingredients ----------------------------------------------------

    @property
    @instance_cache
    def grad_fine(self) -> np.ndarray:
        return grad_matrix(self.fine).toarray()

    @property
    @instance_cache
    def lap_fine(self) -> np.ndarray:
        """Matrix of -Laplacian on fine scalars (positive semidefinite)."""
        return laplacian_matrix(self.fine).toarray()

    @property
    def scalar_average(self) -> CSR:
        """Q: fine scalars -> unit scalars (k levels of blocking)."""
        return av.scalar_average_matrix(self.fine, self.level)

    @property
    @instance_cache
    def scalar_average_adj(self) -> CSR:
        """Weighted adjoint of Q; equals injection constant on blocks."""
        return (float(self.L) ** (self.level * self.dim)
                * self.scalar_average.T)

    @property
    def bond_average(self) -> CSR:
        """Bond blocking fine -> unit (identity at level 0)."""
        return av.bond_average_matrix(self.fine, self.level)

    @property
    def bond_average_next(self) -> CSR:
        """Bond blocking fine -> one level above the unit lattice."""
        return av.bond_average_matrix(self.fine, self.level + 1)

    @property
    def scalar_average_next(self) -> CSR:
        return av.scalar_average_matrix(self.fine, self.level + 1)

    @property
    def axial_surface(self) -> AffineSurface:
        """The surface of the axial minimization (averages + stack), shared
        with the one-shot RG integration at this level; above level 0
        only."""
        return one_shot_constraints(self.fine, self.level)

    @property
    def chi_star(self) -> np.ndarray:
        return av.fluctuation_split(self.unit).chi_star

    @property
    def fluct_basis(self) -> np.ndarray:
        return av.fluctuation_basis(self.unit)

    # -- scalar Green's function and projectors -----------------------------

    @instance_cache
    def green_scalar(self, a: float = 1.0) -> np.ndarray:
        """G = (-Lap + a Q^T Q)^-1 on fine scalars."""
        q, q_adj = self.scalar_average, self.scalar_average_adj
        return _scalar_green(self.lap_fine, (a * q_adj @ q).toarray(), a)

    @instance_cache
    def proj_div(self, a: float = 1.0) -> np.ndarray:
        """R: orthogonal projector onto Lap(ker Q)."""
        return _projectors_for(self.scalar_average, self.scalar_average_adj,
                               self.green_scalar(a))

    # -- the Gaussians of the level ------------------------------------------

    @property
    @instance_cache
    def _axial(self) -> tuple:
        """The curl Gaussian on the axial surface: its minimizer and its
        pushforward, the level-k one-shot density (Delta, log Z_k).  At
        level 0 nothing is integrated: the minimizer is the identity and
        the density the curl form, log Z_0 = 0, the start of the flow."""
        form = curl_energy_form(self.fine)
        if self.level == 0:
            return np.eye(self.fine.n_bonds), QuadraticDensity(form)
        g = SurfaceGaussian(form, self.axial_surface)
        return g.minimizer, g.push

    axial_minimizer = property(lambda self: self._axial[0], doc="""Unit
        bonds -> fine bonds: least curl energy on the axial surface.""")
    axial_density = property(lambda self: self._axial[1])
    delta = property(lambda self: self._axial[1].form, doc="""Delta: the
        curl energy of the axial minimizer, as a unit-bond form.""")

    @property
    @instance_cache
    def step(self) -> SurfaceGaussian:
        """Delta on the surface of one blocking step of the unit lattice:
        its log_partition is log Z_f, its minimizer fixes the block average
        to the next level's field, its covariance is the fluctuation
        covariance on unit bonds.  At level 0 it is the flow's first step."""
        return SurfaceGaussian(self.delta, one_shot_constraints(self.unit, 1))

    @instance_cache
    def minimizer_profile(self) -> dict:
        """`decay_profile` of the axial minimizer."""
        return decay_profile(self.axial_minimizer, self.fine, self.unit)

    @property
    @instance_cache
    def div_penalty(self) -> np.ndarray:
        """The projected-divergence penalty w grad R grad^T on fine bonds,
        at gauge-fixing weight alpha = 1."""
        dg = self.grad_fine
        return self.weight * dg @ self.proj_div() @ dg.T

    @instance_cache
    def feynman(self, alpha: float = 1.0) -> tuple:
        """(minimizer, covariance) of the Feynman Gaussian, curl energy plus
        the projected-divergence penalty over alpha on the block-average
        surface.  The covariance is formed only at alpha = 1, whose
        moments change_of_gauge_check reads (else None).  At level 0 the
        block average is the identity, which fixes the field: every form
        has the axial minimizer and the covariance is zero, so neither the
        penalty nor a Gaussian is built there and the covariance is None."""
        if self.level == 0:
            return self.axial_minimizer, None
        g = SurfaceGaussian(
            curl_energy_form(self.fine) + self.div_penalty / alpha,
            average_constraints(self.fine, self.level))
        return g.minimizer, g.covariance if alpha == 1.0 else None

    def feynman_minimizer(self, alpha: float = 1.0) -> np.ndarray:
        """Least curl energy + projected-divergence penalty, averages fixed."""
        return self.feynman(alpha)[0]

    def feynman_form(self, alpha: float = 1.0) -> np.ndarray:
        """The curl energy of the Feynman minimizer, as a unit-bond form;
        alpha is the gauge-fixing weight."""
        h = self.feynman_minimizer(alpha)
        m = h.T @ curl_energy_form(self.fine) @ h
        return 0.5 * (m + m.T)

    # -- fluctuation covariance ---------------------------------------------

    @property
    @instance_cache
    def reduced_delta(self) -> np.ndarray:
        """C^T Delta C on the fluctuation parameters."""
        C = self.fluct_basis
        m = C.T @ self.delta @ C
        return 0.5 * (m + m.T)

    def fluct_cov(self, x: float = 0.0) -> np.ndarray:
        """(C^T Delta C + x)^-1; x = 0 gives the fluctuation covariance."""
        n = self.reduced_delta.shape[0]
        return _spd_inverse(self.reduced_delta + x * np.eye(n),
                            IndefiniteOnSurface, "reduced fluctuation form")

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

    # -- the covariance representation on block-Fourier symbols -------------

    def _symbol(self, matrix, codomain, domain) -> np.ndarray:
        """block_symbol on the blocks of the next averaging, each space a
        (lattice, kind) pair."""
        return block_symbol(matrix, codomain, domain,
                            self.unit.n_side // self.L)

    @property
    @instance_cache
    def _fine_symbols(self) -> tuple:
        """Symbols of the gradient, the curl form w d^T d and the next
        scalar average Q~ on fine fields."""
        fs, fb = (self.fine, SITE), (self.fine, BOND)
        nxt = av.coarsened(self.fine, self.level + 1)
        d = self._symbol(ext_d_matrix(self.fine), (self.fine, PLAQUETTE), fb)
        return (self._symbol(grad_matrix(self.fine), fb, fs),
                self.weight * _h(d) @ d,
                self._symbol(self.scalar_average_next, (nxt, SITE), fs))

    @property
    @instance_cache
    def bond_average_next_symbol(self) -> np.ndarray:
        """Symbol of Q_next, the bond blocking one level above the unit
        lattice."""
        nxt = av.coarsened(self.fine, self.level + 1)
        return self._symbol(self.bond_average_next, (nxt, BOND),
                            (self.fine, BOND))

    @property
    @instance_cache
    def _unit_symbols(self) -> tuple:
        """Symbols of the compression (I + grad recovery) Q_b, fine bonds
        -> unit bonds, and of X^T X for X = chi* times it, the gauge-fixed
        compression."""
        ub, us = (self.unit, BOND), (self.unit, SITE)
        grad = self._symbol(grad_matrix(self.unit), ub, us)
        rec = self._symbol(av.scalar_recovery_matrix(self.unit), us, ub)
        qb = self._symbol(self.bond_average, ub, (self.fine, BOND))
        comp = (np.eye(grad.shape[-2]) + grad @ rec) @ qb
        n = self.unit.n_bonds
        chi = csr.from_triplets(np.arange(n), np.arange(n), self.chi_star,
                                (n, n))
        x = self._symbol(chi, ub, ub) @ comp
        return comp, _h(x) @ x

    @instance_cache
    def _operator_base(self, a: float) -> np.ndarray:
        """The shift-free part of fine_operator, before symmetrizing:
        curl + w grad R_next grad^T + a Q_next^T Q_next, for R_next the
        divergence projector of the next scalar average."""
        grad, curl, q = self._fine_symbols
        q_adj = float(self.L) ** ((self.level + 1) * self.dim) * _h(q)
        r = _projectors_for(q, q_adj, _scalar_green(
            _h(grad) @ grad, a * q_adj @ q, a))
        qn = self.bond_average_next_symbol
        return curl + self.weight * grad @ r @ _h(grad) + a * _h(qn) @ qn

    def fine_operator(self, x: float = 0.0, a: float = 1.0) -> np.ndarray:
        """Symbol of the regularized bond operator of the covariance
        representation: curl + projected divergence + a Q_next^T Q_next
        + x X^T X."""
        op = self._operator_base(a)
        if x:
            op = op + x * self._unit_symbols[1]
        return 0.5 * (op + _h(op))

    def fine_green(self, x: float = 0.0, a: float = 1.0) -> np.ndarray:
        """Symbol of the inverse of `fine_operator(x, a)`, by Cholesky."""
        return _spd_inverse(self.fine_operator(x, a), SingularOperator,
                            "regularized bond operator")

    def tilde_green(self, x: float = 0.0, a: float = 1.0) -> np.ndarray:
        """Symbol of the Green's function constrained to the kernel of the
        next averaging."""
        g = self.fine_green(x, a)
        qn = self.bond_average_next_symbol
        gqt = g @ _h(qn)
        g = g - gqt @ np.linalg.solve(qn @ gqt, qn @ g)
        return 0.5 * (g + _h(g))

    @property
    @instance_cache
    def _fluct_symbols(self) -> tuple:
        """Symbols of the fluctuation basis C (its parameters per coarse
        site -> unit bonds) and of the reduced form C^T Delta C.  At level
        0 Delta is the curl form; above it is the computed axial form,
        which block_symbol reads exactly only on one block (and refuses
        elsewhere)."""
        ub = (self.unit, BOND)
        C, coarse = self.fluct_basis, av.coarsened(self.unit)
        c = self._symbol(C, ub, (coarse, C.shape[1] // coarse.n_sites))
        delta = (self._fine_symbols[1] if self.level == 0
                 else self._symbol(self.delta, ub, ub))
        m = _h(c) @ delta @ c
        return c, 0.5 * (m + _h(m))

    @instance_cache
    def _covariance_symbol(self, x: float) -> tuple:
        """C (C^T Delta C + x)^-1 C^T as a symbol on unit bonds, and its
        spectral norm; cached per shift, for it does not read the
        regulator."""
        c, m = self._fluct_symbols
        lhs = c @ _spd_inverse(m + x * np.eye(m.shape[-1]),
                               IndefiniteOnSurface,
                               "reduced fluctuation form") @ _h(c)
        return lhs, sym_norm2(lhs)

    def rep_check(self, xs=(0.0,), a: float = 1.0) -> dict:
        """Relative residuals of C (C^T Delta C + x)^-1 C^T against the
        compressed Green's-function representation at regulator a, per x,
        in the spectral norm over all momenta."""
        comp = self._unit_symbols[0]

        def residual(x):
            lhs, norm = self._covariance_symbol(x)
            rhs = comp @ self.tilde_green(x, a) @ _h(comp)
            return sym_norm2(lhs - rhs) / norm
        return {x: residual(x) for x in xs}

    # -- square root of the fluctuation covariance --------------------------

    @instance_cache
    def cov_sqrt_spectral(self) -> np.ndarray:
        """S^-1/2 for S the reduced form, from one eigh."""
        w, v = np.linalg.eigh(self.reduced_delta)
        if w[0] <= 0:
            raise IndefiniteOnSurface("reduced form not positive definite")
        return (v / np.sqrt(w)) @ v.T

    @instance_cache
    def cov_sqrt_quadrature(self, npoints: int = NPOINTS) -> np.ndarray:
        """Evaluate (1/pi) int_0^inf x^{-1/2} (S + x)^-1 dx for S the reduced
        form, by x = tan^2(theta) and the npoints-node Gauss-Legendre rule,
        RULE or HALF_RULE, on [-1, 1] mapped to (0, pi/2)."""
        nodes, weights = {NPOINTS: RULE, NPOINTS // 2: HALF_RULE}[npoints]
        s = self.reduced_delta
        diag = np.diag_indices(s.shape[0])
        theta = 0.25 * np.pi * (nodes + 1.0)
        out = np.zeros_like(s)
        for t, w in zip(theta, weights):
            m = np.cos(t) ** 2 * s
            m[diag] += np.sin(t) ** 2
            out += w * np.linalg.inv(m)
        return (0.25 * np.pi) * (2.0 / np.pi) * out

    # -- change of gauge (Feynman vs Landau) --------------------------------

    @property
    @instance_cache
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


@shape_cache
def average_constraints(fine: Lattice, k: int) -> AffineSurface:
    """The k-fold block average fixed to the coarse field A, K = Q_b and
    E = I: the surface of the Feynman minimizer, built for k >= 1 only
    (level 0 integrates nothing)."""
    qb = av.bond_average_matrix(fine, k)
    return AffineSurface(qb, np.eye(qb.shape[0]))


@shape_cache
def one_shot_constraints(fine: Lattice, k: int) -> AffineSurface:
    """The level-k axial surface on the fine lattice: the k-fold block
    average fixed to the coarse field A and the hierarchical path averages
    to zero, K = [Q_b; stack] and E = [I; 0], built for k >= 1 only
    (level 0 integrates nothing).  At k = 1 it is the surface of one
    blocking step of the flow."""
    qb = av.bond_average_matrix(fine, k)
    K = csr.vstack([qb, av.axial_constraint_stack(fine, k).matrix])
    return AffineSurface(K, np.eye(K.shape[0], qb.shape[0]))


@instance_cache
def get_context(dim, L, n_levels, level, /) -> GaugeContext:
    """The context of an instance level, built once per instance."""
    return GaugeContext(dim, L, n_levels, level)


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
    h_f, cov_f = ctx.feynman(1.0)
    mean_f = h_f @ coarse_field
    # Landau surface: averages fixed, divergence-range components zero
    qb = ctx.bond_average.toarray()
    k_landau = np.vstack([qb, ctx.div_range_basis.T @ ctx.grad_fine.T])
    landau = SurfaceGaussian(curl_energy_form(ctx.fine), AffineSurface(
        k_landau, np.eye(k_landau.shape[0], qb.shape[0])))
    mean_l, cov_l = landau.minimizer @ coarse_field, landau.covariance
    del landau      # its reduced form
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
