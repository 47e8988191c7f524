"""Exact Gaussian integration over affine constraint surfaces.

A QuadraticDensity is a centered Gaussian c * exp(-1/2 <v, F v>) on a
coordinate space: the RG flow starts from one and every push keeps it so.
An AffineSurface is the one surface type: the parallel fibers
{v : K v = E A} over a coarse field A (without E, the surface K v = 0),
factored by one SVD of K into an orthonormal basis B of ker K, which every
fiber shares, and the lift pinv(K) E to a point of each fiber.  Every
surface takes that one SVD: level 0 of the flow, where nothing is
integrated, builds no surface (`gauge_ops.GaugeContext`).  The
cached surface builders (`gauge_ops`, `rg_flow`) key on the spacing-free
shape of their lattice, so each distinct K is factored once per instance.
Every surface integral goes through one type, SurfaceGaussian(F, surface):
it reduces F once to the kernel coordinates, R = B^T F B (the null-space
method), where the Gaussian is finite-dimensional and explicit.  The
Cholesky factor of R is the positivity certificate and gives the
log-determinant, hence the log-partition; solves with R, taken after the
certificate, give the minimizer map, covariance and pushforward.  Each
output is a cached property, computed once for all who hold the Gaussian
(a level context shares its step Gaussian with the flow), and of the
factor only its log-determinant is kept.  Only this module reads a
surface's basis and lift; `kernel_basis` is the one kernel accessor for
the rest.

Delta-function constraints carry true Dirac semantics: integrating
delta(K v - E A) over the ambient space equals the surface integral (the
Lebesgue measure of the orthonormal kernel basis) divided by
sqrt(det(K K^T)), which requires the constraint rows to be linearly
independent; rank-deficient rows raise SingularOperator.  That is the
measure under which the RG normalization recursion closes.  Singular
values at or below RANK_TOL times the largest count as zero throughout.

`kernel_residual` certifies that T vanishes on ker K by projecting onto the
row space of K.  For block-Fourier symbol stacks (fields.block_symbol) it
takes one batched SVD of the small blocks, with the rank rule applied to
all of them at once.  `positive_cholesky` certifies such a stack block by
block, and `operator_max_abs` reads the largest entry of the operator a
stack stands for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.fft        # loaded with the package, not inside a check

from .csr import CSR

RANK_TOL = 1e-9
LOG_2PI = float(np.log(2.0 * np.pi))


class IndefiniteOnSurface(Exception):
    """The quadratic form is not positive definite on the constraint surface."""


class SingularOperator(Exception):
    """An operator expected to be invertible is numerically singular."""


def positive_cholesky(m: np.ndarray, error=IndefiniteOnSurface,
                      what: str = "reduced form") -> np.ndarray:
    """Lower Cholesky factor of the symmetric matrix m, or of each block of
    a stack of Hermitian blocks (leading axes, such as the momenta of a
    block-Fourier symbol).

    The factor exists exactly when m is positive definite, on a stack when
    every block is, so it is the positivity certificate; otherwise raises
    `error` (an exception type), quoting the smallest eigenvalue over all
    blocks.
    """
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(m).min()
        raise error(f"{what} is not positive definite "
                    f"(smallest eigenvalue {low:g})") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of a (the caller's array keeps its own flags)."""
    a = a.view()
    a.flags.writeable = False
    return a


class AffineSurface:
    """The parallel affine surfaces {v : K v = E A} over a coarse field A,
    factored by one SVD K = U S V^T; without E, the one surface K v = 0.

    Everything an integral takes from K comes from that SVD: the orthonormal
    kernel basis V[:, r:], which every fiber shares, the row rank r
    (singular values above RANK_TOL * sigma_max), the log-Gram
    logdet(K_r K_r^T) = 2 sum_{i<r} log s_i, and, with E, the lift
    pinv(K) E = V_r S_r^-1 U_r^T E, the fiber over A passing through
    lift @ A.  When the rows are dependent, E must map into the range of K
    (every fiber nonempty), or SingularOperator is raised.  All arrays are
    read-only, so a surface can be cached and shared.  A CSR K is
    densified here, for the SVD.
    """

    def __init__(self, K, E=None):
        K = K.toarray() if isinstance(K, CSR) else K
        K = np.atleast_2d(np.asarray(K, dtype=float))
        E = None if E is None else _frozen(np.asarray(E, dtype=float))
        self.matrix, self.fiber, self.lift = _frozen(K), E, None
        u, s, vt = np.linalg.svd(K)
        r = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
        self.basis = _frozen(vt[r:].copy().T)    # frees the rows of vt
        self.rank = r
        self.log_gram = float(2.0 * np.sum(np.log(s[:r])))
        if E is not None:
            lift = vt[:r].T @ ((u[:, :r].T @ E).T / s[:r]).T
            if r < K.shape[0]:
                res = np.abs(K @ lift - E).max(initial=0.0)
                if res > 1e-8 * max(1.0, np.abs(E).max(initial=0.0)):
                    raise SingularOperator(
                        f"constraints inconsistent (residual {res:g})")
            self.lift = _frozen(lift)


def kernel_basis(K) -> np.ndarray:
    """Orthonormal basis of the numerical null space of K, dense or CSR
    (read-only).

    Singular values at or below RANK_TOL * sigma_max count as zero.
    Deterministic given K (SVD right singular vectors).
    """
    return AffineSurface(K).basis


def row_space(K: np.ndarray):
    """Orthonormal rows spanning the numerical row space of each block of K.

    K is one matrix or a stack of blocks (leading axes).  One batched SVD;
    singular values above RANK_TOL times the largest over all blocks count,
    which is kernel_basis's rank rule for the block-diagonal whole.  Returns
    the rows of V^* of every block, the rows past its rank zeroed, and the
    summed rank.
    """
    if 0 in K.shape[-2:]:
        return np.zeros(K.shape[:-2] + (0, K.shape[-1]), K.dtype), 0
    _, s, vh = np.linalg.svd(K, full_matrices=False)
    keep = s > RANK_TOL * s.max()
    return vh * keep[..., None], int(keep.sum())


def kernel_residual(T: np.ndarray, K: np.ndarray) -> float:
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
    vh, _ = row_space(K)
    return operator_max_abs(T - (T @ vh.conj().swapaxes(-1, -2)) @ vh)


def operator_max_abs(S: np.ndarray) -> float:
    """max |entry| of a matrix, or of the block-circulant operator of a
    block-Fourier symbol stack (fields.block_symbol): its first block
    column, the inverse DFT over the momenta, holds every entry."""
    if S.ndim > 2:
        S = np.fft.ifftn(S, axes=tuple(range(S.ndim - 2)))
    return float(np.abs(S).max()) if S.size else 0.0


@dataclass
class QuadraticDensity:
    """The centered Gaussian c * exp(-1/2 <v, form v>), log c = log_const."""

    form: np.ndarray
    log_const: float = 0.0

    def __post_init__(self):
        """Checks the form symmetric and stores it read-only and
        C-contiguous, as its symmetric part always was: an exactly symmetric
        C-contiguous form is the caller's array itself, not a copy."""
        form = np.asarray(self.form, dtype=float)
        asym = np.abs(form - form.T).max()
        if asym:
            scale = max(1.0, np.abs(form).max())
            if asym > 1e-12 * scale:
                raise ValueError(f"form is not symmetric (residual {asym:g})")
            form = 0.5 * (form + form.T)
        self.form = _frozen(np.ascontiguousarray(form))


class SurfaceGaussian:
    """The Gaussian exp(-1/2 <v, F v>) of a symmetric form F on the fibers
    of an AffineSurface, reduced once to the kernel coordinates.

    The reduced form R = B^T F B (B the surface's kernel basis, which every
    fiber shares) is formed here.  Every output is a cached property,
    computed when first read, so whoever holds the Gaussian computes each
    output once.  The Cholesky factor of R, formed when an output first
    needs it, is the positivity certificate; only its log-determinant is
    kept, and every output solves with R once it is certified.  Array
    outputs are read-only.  The form is held by reference, not copied.
    """

    def __init__(self, form: np.ndarray, surface: AffineSurface):
        self.form, self.surface = form, surface
        B = surface.basis
        R = B.T @ form @ B
        self.reduced = 0.5 * (R + R.T)

    @cached_property
    def min_eig(self) -> float:
        """Smallest eigenvalue of R, the form on the surface directions;
        no certificate (inf on a zero-dimensional surface)."""
        if self.reduced.shape[0] == 0:
            return np.inf
        return float(np.linalg.eigvalsh(self.reduced)[0])

    @cached_property
    def _logdet(self) -> float:
        """log det R from the certificate, whose factor is not kept."""
        chol = positive_cholesky(self.reduced)
        return 2.0 * float(np.sum(np.log(np.diag(chol))))

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """R^-1 rhs, once R is certified positive definite."""
        self._logdet    # the certificate: raises unless R is positive
        return np.linalg.solve(self.reduced, rhs)

    @cached_property
    def minimizer(self) -> np.ndarray:
        """Matrix H with H @ A = argmin 1/2 <v, F v> subject to K v = E A:
        W - B R^-1 B^T F W for the lift W.  The minimizer of a homogeneous
        quadratic on the fiber over A is linear in A."""
        B, W = self.surface.basis, self.surface.lift
        if W is None:
            raise ValueError("the constraints carry no fiber map E")
        return _frozen(W - B @ self._solve(B.T @ self.form @ W))

    @cached_property
    def covariance(self) -> np.ndarray:
        """Ambient covariance B R^-1 B^T of the surface Gaussian (it kills
        the row space of K)."""
        B = self.surface.basis
        cov = B @ self._solve(B.T)
        return _frozen(0.5 * (cov + cov.T))

    @cached_property
    def log_partition(self) -> float:
        """Log of the integral of exp(-1/2 <v, F v>) against delta(K v), the
        fiber over A = 0, under the Dirac measure, which needs independent
        constraint rows."""
        logdet = self._logdet
        if self.surface.rank < self.surface.matrix.shape[0]:
            raise SingularOperator("the Dirac measure needs independent "
                                   "constraint rows")
        return float(0.5 * self.reduced.shape[0] * LOG_2PI - 0.5 * logdet
                     - 0.5 * self.surface.log_gram)

    @cached_property
    def push(self) -> QuadraticDensity:
        """Integrate exp(-1/2 <v, F v>) against delta(K v - E A) over v: the
        centered density of the coarse variable A, with form H^T F H and
        constant log_partition, H the minimizer.  The fibers are parallel,
        so A enters only through H A."""
        H = self.minimizer
        m = H.T @ self.form @ H
        return QuadraticDensity(0.5 * (m + m.T), self.log_partition)
