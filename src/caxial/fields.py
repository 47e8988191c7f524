"""Fields on lattice elements and the discrete exterior calculus.

A field is a plain float array indexed by the canonical ordinals of one
element kind (sites, bonds or plaquettes, docs/indexing.md) of a lattice;
operators are matrices acting on those arrays.

Conventions (fixed once, used by every other module):

* derivatives are divided differences: (grad f)(x, x+eta*e_mu) =
  (f(x+eta*e_mu) - f(x)) / eta, and the plaquette curl carries the same
  1/eta factor;
* inner products are weighted by eta**dim (`spacing**dim`), so that on
  unit lattices they reduce to plain sums;
* the adjoint of a map between spaces of one lattice is the plain matrix
  transpose (the uniform weights cancel), so `codiff` is the CSR transpose
  of grad or ext_d; between different spacings it picks up the ratio of
  the weights.

These are the unique choices under which block averaging commutes with
the gradient, path averages of gradients telescope with an L**k factor,
and the curl energy is invariant under field rescaling.

The calculus operators, like the averaging operators of `averaging`, are
assembled as CSR at every size; checks that need dense linear algebra
densify them with `.toarray()`.  The curl-energy form is the one operator
kept dense: it is formed once per lattice as a sparse product and densified
for the factorizations it feeds.

On a torus the calculus and averaging operators commute with translations
by a block; `block_symbol` verifies that exactly and returns the
block-Fourier symbol, one small block per momentum (docs/indexing.md,
"Block translations on a torus").
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from .lattice import (Lattice, LatticeError, LatticeSpec, fine_torus,
                      instance_cache)

SITE = "site"
BOND = "bond"
PLAQUETTE = "plaquette"

DEFAULT_MAX_DIM = 5000


class ResourceCapExceeded(RuntimeError):
    """The requested instance is larger than the configured ambient cap."""


def max_ambient_dim() -> int:
    """The ambient-dimension cap: CAXIAL_MAX_DIM if set, else the default.

    A value that is not a positive integer (which would skip every check)
    raises ValueError.
    """
    cap = int(os.environ.get("CAXIAL_MAX_DIM", DEFAULT_MAX_DIM))
    if cap < 1:
        raise ValueError(f"{cap} is not a positive dimension")
    return cap


def _guard(n: int):
    """Raise ResourceCapExceeded if an ambient dimension n is over the cap;
    callers pass closed-form LatticeSpec counts, before anything is built."""
    cap = max_ambient_dim()
    if n > cap:
        raise ResourceCapExceeded(f"ambient dimension {n} exceeds cap {cap}")


def guarded_torus(dim: int, L: int, scale: int, levels: int) -> Lattice:
    """fine_torus(dim, L, scale, levels), guarded on its closed-form bond
    count before it is built."""
    _guard(LatticeSpec(dim, L, scale, levels).n_bonds)
    return fine_torus(dim, L, scale, levels)


def element_count(lattice: Lattice, kind: str) -> int:
    return {SITE: lattice.n_sites, BOND: lattice.n_bonds,
            PLAQUETTE: lattice.n_plaquettes}[kind]


# -- block translations on a torus -------------------------------------------

def _block_ordinals(space, grid: int):
    """The ordinals of a torus space (lattice, kind) in an array indexed by
    (block position, offset) per lattice axis and then the component, and
    the size of one block."""
    lat, kind = space
    if not lat.is_torus or grid < 1 or lat.n_side % grid:
        raise LatticeError(f"a {lat.n_side}-site side does not split into "
                           f"{grid} block positions on a torus")
    side = lat.n_side // grid
    comps = element_count(lat, kind) // lat.n_sites
    split = (grid, side) * lat.dim + (comps,)
    return np.arange(lat.n_sites * comps).reshape(split), side**lat.dim * comps


def block_symbol(matrix, codomain, domain, grid: int) -> np.ndarray:
    """Block-Fourier symbol of an operator, dense or sparse, between torus
    spaces, each given as a (lattice, kind) pair.

    Both spaces are cut into grid**dim blocks, so a fine index L*g + r
    along each axis is (block position g, offset r); a space whose side
    equals grid has one site per block.  The operator must commute exactly
    with the block translations: it is compared, on its nonzeros, with its
    conjugate by the shift of one block position along each axis, rows and
    columns together, and LatticeError is raised if any entry differs.
    Then it is the block convolution by its first block column C[g] (rows
    of block g, columns of block 0), and the symbol is the unnormalized DFT
    S[k] = sum_g C[g] exp(-2 pi i k.g / grid), an array of shape
    (grid,)*dim + (a, b) for blocks of a rows and b columns.
    """
    dim = domain[0].dim
    rows, a = _block_ordinals(codomain, grid)
    cols, b = _block_ordinals(domain, grid)
    m = sp.csr_matrix(matrix, dtype=float)
    if m.shape != (rows.size, cols.size):
        raise LatticeError(f"matrix shape {m.shape} != "
                           f"{(rows.size, cols.size)}")
    for axis in range(dim):
        # p[.., g, ..] = index[.., g - 1, ..]: M commutes with the shift
        # when M[p_rows][:, p_cols] == M
        p_rows = np.roll(rows, 1, axis=2 * axis).ravel()
        p_cols = np.roll(cols, 1, axis=2 * axis).ravel()
        if (m[p_rows][:, p_cols] != m).nnz:
            raise LatticeError("operator does not commute with the block "
                               f"translations along axis {axis}")
    first = cols[(0, slice(None)) * dim].ravel()    # block 0, within order
    column = m[:, first].toarray().reshape(rows.shape + (b,))
    row_pos = tuple(range(0, 2 * dim, 2))
    order = row_pos + tuple(p for p in range(column.ndim) if p not in row_pos)
    column = column.transpose(order).reshape((grid,) * dim + (a, b))
    return np.fft.fftn(column, axes=tuple(range(dim)))


# -- operator assembly -------------------------------------------------------

def _rows_csr(vals, cols, per_row: int, n_cols: int) -> sp.csr_matrix:
    """CSR matrix of consecutive rows of per_row entries each, in canonical
    form (sorted columns, repeats summed), as from the same COO triplets."""
    indptr = np.arange(0, cols.size + 1, per_row)
    mat = sp.csr_matrix((vals, cols, indptr),
                        shape=(cols.size // per_row, n_cols))
    mat.sum_duplicates()
    return mat


@instance_cache
def grad_matrix(lattice: Lattice) -> sp.csr_matrix:
    """Bonds x sites CSR matrix of the divided-difference gradient."""
    inv_eta = 1.0 / lattice.spacing
    s, mu = lattice.bond_sites, lattice.bond_axes
    # row b = (s, mu): -1/eta at s, then +1/eta at s + e_mu
    cols = np.stack([s, lattice.next[mu, s]], axis=1).ravel()
    vals = np.tile([-inv_eta, inv_eta], lattice.n_bonds)
    return _rows_csr(vals, cols, 2, lattice.n_sites)


@instance_cache
def ext_d_matrix(lattice: Lattice) -> sp.csr_matrix:
    """Plaquettes x bonds CSR matrix of the oriented boundary sum over
    1/eta."""
    inv_eta = 1.0 / lattice.spacing
    s = lattice.plaq_sites
    mu, nu = lattice.plaq_axes.T
    bond = lattice.bond_index
    # row p: +(s, mu), +(s + e_mu, nu), -(s + e_nu, mu), -(s, nu)
    cols = np.stack([bond[s, mu], bond[lattice.next[mu, s], nu],
                     bond[lattice.next[nu, s], mu], bond[s, nu]],
                    axis=1).ravel()
    vals = np.tile([inv_eta, inv_eta, -inv_eta, -inv_eta],
                   lattice.n_plaquettes)
    return _rows_csr(vals, cols, 4, lattice.n_bonds)


def laplacian_matrix(lattice: Lattice) -> sp.csr_matrix:
    """CSR matrix of -Laplacian = (codiff of grad) of grad; positive
    semidefinite."""
    g = grad_matrix(lattice)
    return (g.T @ g).tocsr()


@instance_cache
def curl_energy_form(lattice: Lattice) -> np.ndarray:
    """Dense quadratic form eta**dim d^T d of the curl energy on bonds,
    read-only, from the CSR product of the curl with itself."""
    d = ext_d_matrix(lattice)
    form = (lattice.spacing**lattice.dim * d.T @ d).toarray()
    form.flags.writeable = False
    return form


def codiff(kind: str, lattice: Lattice) -> sp.csr_matrix:
    """Weighted adjoint of grad (kind='bond') or of ext_d (kind='plaquette'):
    the CSR transpose, since both spaces carry the weight eta**dim."""
    build = {BOND: grad_matrix, PLAQUETTE: ext_d_matrix}.get(kind)
    if build is None:
        raise LatticeError(f"codiff undefined for kind {kind!r}")
    return build(lattice).T.tocsr()


# -- field-level operations --------------------------------------------------

def scale_field(lattice: Lattice, A: np.ndarray, n: int) -> np.ndarray:
    """A bond field of `lattice` reinterpreted at spacing finer by L**n, on
    `build_lattice(lattice.spec.rescaled(n))`.

    In centered integer coordinates the bond sets coincide, so the map is a
    relabeling with values multiplied by L**(n(dim-2)/2).  Negative n
    inverts the operation.  The curl energy is invariant.
    """
    return float(lattice.L) ** (n * (lattice.dim - 2) / 2.0) * A


def apply_symmetry(r, lattice: Lattice, kind: str,
                   values: np.ndarray) -> np.ndarray:
    """Transformed field A_r with A_r(b) = A(r^{-1} b), signs included.

    Sites are relabeled; bonds also take the orientation signs of the
    signed axis permutation.
    """
    out = np.empty_like(values)
    if kind == SITE:
        out[lattice.site_permutation(r)] = values
        return out
    if kind == BOND:
        dest, sign = lattice.bond_permutation(r)
        out[dest] = sign * values
        return out
    raise LatticeError("symmetry action implemented for site and bond fields")


def random_field(lattice: Lattice, kind: str, rng) -> np.ndarray:
    """Standard normal values on the elements of one kind."""
    return rng.standard_normal(element_count(lattice, kind))
