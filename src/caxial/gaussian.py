"""Exact Gaussian integration over affine constraint surfaces.

A QuadraticDensity is c * exp(-1/2 <v, F v> + <l, v>) on a coordinate space;
an AffineSurface is {v : K v = b} carried with an orthonormal basis of
ker K and a particular solution.  All integrals are reduced to the kernel
coordinates, where the Gaussian is finite-dimensional and explicit.  What
they take from K comes from one SVD, held by a ConstraintFactor; callers
that meet the same constraints again pass the factor instead of K.

Two measure conventions are supported for delta-function constraints:

* "surface" -- the Lebesgue measure induced by the orthonormal kernel
  basis on the surface (the default; basis-independent);
* "dirac"   -- true delta semantics: integrating delta(Kv - b) over the
  ambient space equals the surface integral divided by sqrt(det(K K^T)),
  which requires the constraint rows to be linearly independent.

Identities that track multiplicative constants through a chain of
delta-function insertions only close under the "dirac" convention; results
that are normalized (moments, covariances, minimizers) are convention-free.

`kernel_residual` certifies that T vanishes on ker K by projecting onto the
row space of K.  For block-Fourier symbol stacks (fields.block_symbol) it
takes one batched SVD of the small blocks, with the rank rule applied to
all of them at once.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

RANK_TOL = 1e-9
LOG_2PI = float(np.log(2.0 * np.pi))


class IndefiniteOnSurface(Exception):
    """The quadratic form is not positive definite on the constraint surface."""


class SingularOperator(Exception):
    """An operator expected to be invertible is numerically singular."""


def positive_cholesky(m: np.ndarray, error=IndefiniteOnSurface,
                      what: str = "reduced form") -> np.ndarray:
    """Lower Cholesky factor of the symmetric matrix m.

    The factor exists exactly when m is positive definite, so it is the
    positivity certificate; otherwise raises `error` (an exception type),
    quoting the smallest eigenvalue.
    """
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(m)[0]
        raise error(f"{what} is not positive definite "
                    f"(smallest eigenvalue {low:g})") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of a (the caller's array keeps its own flags)."""
    a = a.view()
    a.flags.writeable = False
    return a


class ConstraintFactor:
    """The constraints K v = E A, factored by one SVD K = U S V^T.

    Everything a constrained integration takes from K comes from that SVD:
    the orthonormal kernel basis V[:, r:], the row rank r (singular values
    above tol * sigma_max), the log-Gram logdet(K_r K_r^T) = 2 sum_{i<r}
    log s_i, and pinv(K) applied as V_r S_r^-1 U_r^T, never formed.  With a
    fiber map E it also holds lift = pinv(K) E, the particular point of the
    fiber over A being lift @ A.  All arrays are read-only, so a factor can
    be cached and shared.  A sparse K is densified here, for the SVD.
    """

    def __init__(self, K, E=None, tol: float = RANK_TOL):
        K = K.toarray() if sp.issparse(K) else K
        K = np.atleast_2d(np.asarray(K, dtype=float))
        u, s, vt = np.linalg.svd(K)
        r = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
        self.matrix = _frozen(K)
        self.basis = _frozen(vt[r:].T)
        self.rank = r
        self.log_gram = float(2.0 * np.sum(np.log(s[:r])))
        self._u, self._s, self._v = (_frozen(u[:, :r]), _frozen(s[:r]),
                                     _frozen(vt[:r].T))
        self._set_fiber(E)

    def _set_fiber(self, E):
        self.fiber = self.lift = None
        if E is not None:
            self.fiber = _frozen(np.asarray(E, dtype=float))
            self.lift = _frozen(self.pinv(self.fiber))

    def pinv(self, E) -> np.ndarray:
        """pinv(K) E, as V_r S_r^-1 U_r^T E."""
        return self._v @ ((self._u.T @ E).T / self._s).T

    def with_fiber(self, E) -> "ConstraintFactor":
        """The same factor over another fiber map E (no new SVD)."""
        out = copy.copy(self)
        out._set_fiber(E)
        return out


def _factored(K, E=None, tol: float = RANK_TOL) -> ConstraintFactor:
    """K itself if it is a ConstraintFactor (over E, if E is given), else
    the factor of the raw matrix K: one constructor for both."""
    if isinstance(K, ConstraintFactor):
        return K if E is None else K.with_fiber(E)
    return ConstraintFactor(K, E, tol)


def kernel_basis(K, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical null space of K, dense or sparse
    (read-only).

    Singular values below tol * sigma_max count as zero.  Deterministic
    given K (SVD right singular vectors).
    """
    return ConstraintFactor(K, tol=tol).basis


def row_space(K: np.ndarray, tol: float = RANK_TOL):
    """Orthonormal rows spanning the numerical row space of each block of K.

    K is one matrix or a stack of blocks (leading axes).  One batched SVD;
    singular values above tol times the largest over all blocks count, which
    is kernel_basis's rank rule for the block-diagonal whole.  Returns the
    rows of V^* of every block, the rows past its rank zeroed, and the
    summed rank.
    """
    if 0 in K.shape[-2:]:
        return np.zeros(K.shape[:-2] + (0, K.shape[-1]), K.dtype), 0
    _, s, vh = np.linalg.svd(K, full_matrices=False)
    keep = s > tol * s.max()
    return vh * keep[..., None], int(keep.sum())


def kernel_residual(T: np.ndarray, K: np.ndarray,
                    tol: float = RANK_TOL) -> float:
    """max |T (I - P)| for P the orthogonal projector onto the numerical
    row space of K (row_space's rank rule).

    T v = T (I - P) v for every v in ker K, so the value certifies that T
    vanishes on ker K without forming that basis.  T and K are matrices, or
    block-Fourier symbol stacks over one grid (fields.block_symbol): the
    singular values of a block-circulant K are those of its blocks, so the
    projector is taken block by block, and T (I - P) is block-circulant
    too, its first block column (the inverse DFT) holding every entry.
    """
    T, K = np.atleast_2d(T), np.atleast_2d(K)
    vh, _ = row_space(K, tol)
    res = T - (T @ vh.conj().swapaxes(-1, -2)) @ vh
    if res.ndim > 2:
        res = np.fft.ifftn(res, axes=tuple(range(res.ndim - 2)))
    return float(np.abs(res).max()) if res.size else 0.0


@dataclass
class QuadraticDensity:
    """c * exp(-1/2 <v, form v> + <linear, v>) with log c = log_const."""

    form: np.ndarray
    linear: np.ndarray = None
    log_const: float = 0.0

    def __post_init__(self):
        self.form = np.asarray(self.form, dtype=float)
        n = self.form.shape[0]
        if self.linear is None:
            self.linear = np.zeros(n)
        self.linear = np.asarray(self.linear, dtype=float)
        asym = np.abs(self.form - self.form.T).max()
        scale = max(1.0, np.abs(self.form).max())
        if asym > 1e-12 * scale:
            raise ValueError(f"form is not symmetric (residual {asym:g})")
        self.form = 0.5 * (self.form + self.form.T)

    @property
    def dim(self) -> int:
        return self.form.shape[0]

    def log_value(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        return self.log_const - 0.5 * v @ self.form @ v + self.linear @ v


@dataclass
class AffineSurface:
    """{v : constraint v = offset} with cached kernel basis and particular point."""

    constraint: np.ndarray
    offset: np.ndarray
    basis: np.ndarray
    particular: np.ndarray
    row_rank: int
    log_gram: float  # logdet(K_r K_r^T) over the independent rows

    @classmethod
    def from_constraints(cls, K, b=None, tol: float = RANK_TOL):
        """The surface K v = b; K is a raw matrix or its ConstraintFactor."""
        f = _factored(K, tol=tol)
        K = f.matrix
        if b is None:
            b = np.zeros(K.shape[0])
        b = np.asarray(b, dtype=float)
        particular = f.pinv(b)
        if K.shape[0]:
            res = np.abs(K @ particular - b).max()
            if res > 1e-8 * max(1.0, np.abs(b).max()):
                raise SingularOperator(
                    f"constraints inconsistent (residual {res:g})")
        return cls(K, b, f.basis, particular, f.rank, f.log_gram)

    @classmethod
    def unconstrained(cls, n: int):
        return cls.from_constraints(np.zeros((0, n)))

    @property
    def full_row_rank(self) -> bool:
        return self.row_rank == self.constraint.shape[0]

    @property
    def surface_dim(self) -> int:
        return self.basis.shape[1]


def _reduced_form(density: QuadraticDensity, surface: AffineSurface):
    B = surface.basis
    R = B.T @ density.form @ B
    g = B.T @ (density.linear - density.form @ surface.particular)
    return 0.5 * (R + R.T), g


def _inverse_on_basis(basis: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """B R^-1 B^T for the reduced form R = L L^T."""
    return basis @ sla.cho_solve((chol, True), basis.T)


def _minimizer(surface: AffineSurface, chol: np.ndarray,
               g: np.ndarray) -> np.ndarray:
    return surface.particular + surface.basis @ sla.cho_solve((chol, True), g)


def surface_min_eig(density: QuadraticDensity, surface: AffineSurface) -> float:
    """Smallest eigenvalue of the form on the surface directions."""
    R, _ = _reduced_form(density, surface)
    if R.shape[0] == 0:
        return np.inf
    return float(np.linalg.eigvalsh(R)[0])


def constrained_minimize(density: QuadraticDensity,
                         surface: AffineSurface) -> np.ndarray:
    """Unique minimizer of 1/2 <v,Fv> - <l,v> subject to the constraints."""
    R, g = _reduced_form(density, surface)
    return _minimizer(surface, positive_cholesky(R), g)


def log_partition(density: QuadraticDensity, surface: AffineSurface,
                  convention: str = "surface") -> float:
    """Log of the Gaussian integral of the density over the surface."""
    R, g = _reduced_form(density, surface)
    chol = positive_cholesky(R)
    n = R.shape[0]
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    vstar = _minimizer(surface, chol, g)
    value = (0.5 * n * LOG_2PI - 0.5 * logdet
             - 0.5 * vstar @ density.form @ vstar + density.linear @ vstar
             + density.log_const)
    if convention == "dirac":
        if not surface.full_row_rank:
            raise SingularOperator(
                "dirac convention needs independent constraint rows")
        value -= 0.5 * surface.log_gram
    elif convention != "surface":
        raise ValueError(f"unknown convention {convention!r}")
    return float(value)


def subspace_covariance(density: QuadraticDensity,
                        surface: AffineSurface) -> np.ndarray:
    """Ambient covariance of the surface Gaussian (kills the row space of K)."""
    R, _ = _reduced_form(density, surface)
    cov = _inverse_on_basis(surface.basis, positive_cholesky(R))
    return 0.5 * (cov + cov.T)


def moment_generating(density: QuadraticDensity, surface: AffineSurface,
                      J: np.ndarray) -> float:
    """log E[exp(<v,J>)] under the normalized surface Gaussian."""
    J = np.asarray(J, dtype=float)
    R, g = _reduced_form(density, surface)
    chol = positive_cholesky(R)
    mean = _minimizer(surface, chol, g)
    cov = _inverse_on_basis(surface.basis, chol)
    return float(mean @ J + 0.5 * J @ cov @ J)


def _fiber_reduction(form: np.ndarray, f: ConstraintFactor):
    """The Cholesky factor of the form restricted to ker K, which the
    parallel fibers {v : K v = E A} share."""
    if f.lift is None:
        raise ValueError("the constraints carry no fiber map E")
    R = f.basis.T @ form @ f.basis
    return positive_cholesky(0.5 * (R + R.T))


def minimizer_map(form: np.ndarray, K, E: np.ndarray = None,
                  tol: float = RANK_TOL) -> np.ndarray:
    """Matrix H with H @ A = argmin 1/2 <v, form v> subject to K v = E A.

    K is a raw matrix (then E is required) or a ConstraintFactor, over its
    own fiber map unless E is given.  The minimizer of a homogeneous
    quadratic on the fiber {K v = E A} is linear in A; this returns that
    linear map explicitly.
    """
    f = _factored(K, E, tol)
    chol = _fiber_reduction(form, f)
    B, W = f.basis, f.lift
    return W - B @ sla.cho_solve((chol, True), B.T @ form @ W)


def push_constraint(density: QuadraticDensity, K, E: np.ndarray = None,
                    tol: float = RANK_TOL,
                    convention: str = "surface") -> QuadraticDensity:
    """Integrate the density over the fibers {v : K v = E A}.

    K and E as in minimizer_map.  Returns the quadratic density of the
    coarse variable A.  The fibers are parallel affine surfaces, so the
    reduced factorization is shared; the A-dependence enters only through
    the particular solution W A with W = pinv(K) E.
    """
    f = _factored(K, E, tol)
    F, l = density.form, density.linear
    chol = _fiber_reduction(F, f)
    B, W = f.basis, f.lift
    n = chol.shape[0]
    M = _inverse_on_basis(B, chol)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    FW = F @ W
    phi = W.T @ FW - FW.T @ M @ FW
    psi = W.T @ l - FW.T @ M @ l
    const = (density.log_const + 0.5 * l @ M @ l
             + 0.5 * n * LOG_2PI - 0.5 * logdet)
    if convention == "dirac":
        if f.rank < f.matrix.shape[0]:
            raise SingularOperator(
                "dirac convention needs independent constraint rows")
        const -= 0.5 * f.log_gram
    elif convention != "surface":
        raise ValueError(f"unknown convention {convention!r}")
    return QuadraticDensity(0.5 * (phi + phi.T), psi, float(const))
