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
assembled as canonical CSR (`caxial.csr`) at every size; checks that need
dense linear algebra densify them with `.toarray()`.  The curl-energy form
is the one operator kept dense: it is formed once per lattice as a sparse
product and densified, C-ordered, for the factorizations it feeds.  The
functions here work on any lattice they are given: the resource cap is
enforced once, by `cli`, on each check's declared cost before the check
runs.

On a torus the calculus and averaging operators commute with translations
by a block; `block_symbol` verifies that exactly and returns the
block-Fourier symbol, one small block per momentum (docs/indexing.md,
"Block translations on a torus").
"""

from __future__ import annotations

import numpy as np
import numpy.fft        # loaded with the package, not inside a check

from . import csr
from .csr import CSR
from .lattice import Lattice, LatticeError, instance_cache

SITE = "site"
BOND = "bond"
PLAQUETTE = "plaquette"


def element_count(lattice: Lattice, kind) -> int:
    """Elements of one kind; an int kind n is a space of n values per site,
    as the fluctuation basis has n parameters per coarse site."""
    if isinstance(kind, int):
        return lattice.n_sites * kind
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
    """Block-Fourier symbol of an operator, dense or CSR, between torus
    spaces, each given as a (lattice, kind) pair.

    Both spaces are cut into grid**dim blocks, so a fine index L*g + r
    along each axis is (block position g, offset r); a space whose side
    equals grid has one site per block.  The operator must commute exactly
    with the block translations: its nonzero entries, moved by the shift
    of one block position along each axis, rows and columns together, must
    be its nonzero entries, and LatticeError is raised if any differs.  On
    one block (grid 1) every shift is the identity and nothing is tested.
    Then it is the block convolution by its first block column C[g] (rows
    of block g, columns of block 0), and the symbol is the unnormalized DFT
    S[k] = sum_g C[g] exp(-2 pi i k.g / grid), an array of shape
    (grid,)*dim + (a, b) for blocks of a rows and b columns: complex, or
    the float matrix itself on one block.
    """
    dim = domain[0].dim
    rows, a = _block_ordinals(codomain, grid)
    cols, b = _block_ordinals(domain, grid)
    m = csr.as_csr(matrix)
    if m.shape != (rows.size, cols.size):
        raise LatticeError(f"matrix shape {m.shape} != "
                           f"{(rows.size, cols.size)}")
    if grid == 1:
        return m.toarray().reshape((1,) * dim + (a, b))
    # the nonzero entries (i, j, v) in row-major order: their keys come sorted
    r, c, v = m.entries()
    nonzero = v != 0
    r, c, v = r[nonzero], c[nonzero], v[nonzero]
    key = r * cols.size + c
    for axis in range(dim):
        # p[.., g, ..] = index[.., g - 1, ..]: M commutes with the shift
        # when moving every entry (i, j) to (p[i], p[j]) maps the entries
        # onto themselves, values included
        p_rows = np.roll(rows, 1, axis=2 * axis).ravel()
        p_cols = np.roll(cols, 1, axis=2 * axis).ravel()
        moved = p_rows[r] * cols.size + p_cols[c]
        # a shift leaves long sorted runs, which a stable sort merges
        order = np.argsort(moved, kind="stable")
        if not (np.array_equal(moved[order], key)
                and np.array_equal(v[order], v)):
            raise LatticeError("operator does not commute with the block "
                               f"translations along axis {axis}")
    # the first block column: the entries in the columns of block 0
    within = np.full(cols.size, -1)
    within[cols[(0, slice(None)) * dim].ravel()] = np.arange(b)
    first = within[c] >= 0
    column = np.zeros((rows.size, b))
    column[r[first], within[c[first]]] = v[first]
    column = column.reshape(rows.shape + (b,))
    row_pos = tuple(range(0, 2 * dim, 2))
    order = row_pos + tuple(p for p in range(column.ndim) if p not in row_pos)
    column = column.transpose(order).reshape((grid,) * dim + (a, b))
    return np.fft.fftn(column, axes=tuple(range(dim)))


# -- operator assembly -------------------------------------------------------

@instance_cache
def grad_matrix(lattice: Lattice) -> CSR:
    """Bonds x sites CSR matrix of the divided-difference gradient."""
    inv_eta = 1.0 / lattice.spacing
    s, mu = lattice.bond_sites, lattice.bond_axes
    # row b = (s, mu): -1/eta at s, then +1/eta at s + e_mu
    cols = np.stack([s, lattice.next[mu, s]], axis=1)
    vals = np.tile([-inv_eta, inv_eta], lattice.n_bonds)
    return csr.from_triplets(np.repeat(np.arange(lattice.n_bonds), 2), cols,
                             vals, (lattice.n_bonds, lattice.n_sites))


@instance_cache
def ext_d_matrix(lattice: Lattice) -> CSR:
    """Plaquettes x bonds CSR matrix of the oriented boundary sum over
    1/eta."""
    inv_eta = 1.0 / lattice.spacing
    s = lattice.plaq_sites
    mu, nu = lattice.plaq_axes.T
    bond = lattice.bond_index
    # row p: +(s, mu), +(s + e_mu, nu), -(s + e_nu, mu), -(s, nu)
    cols = np.stack([bond[s, mu], bond[lattice.next[mu, s], nu],
                     bond[lattice.next[nu, s], mu], bond[s, nu]], axis=1)
    vals = np.tile([inv_eta, inv_eta, -inv_eta, -inv_eta],
                   lattice.n_plaquettes)
    return csr.from_triplets(np.repeat(np.arange(lattice.n_plaquettes), 4),
                             cols, vals,
                             (lattice.n_plaquettes, lattice.n_bonds))


def laplacian_matrix(lattice: Lattice) -> CSR:
    """CSR matrix of -Laplacian = (codiff of grad) of grad; positive
    semidefinite."""
    g = grad_matrix(lattice)
    return g.T @ g


@instance_cache
def curl_energy_form(lattice: Lattice) -> np.ndarray:
    """Dense quadratic form eta**dim d^T d of the curl energy on bonds,
    read-only, from the CSR product of the curl with itself."""
    d = ext_d_matrix(lattice)
    return (lattice.spacing**lattice.dim * d.T @ d).toarray()


def codiff(kind: str, lattice: Lattice) -> CSR:
    """Weighted adjoint of grad (kind='bond') or of ext_d (kind='plaquette'):
    the CSR transpose, since both spaces carry the weight eta**dim."""
    build = {BOND: grad_matrix, PLAQUETTE: ext_d_matrix}.get(kind)
    if build is None:
        raise LatticeError(f"codiff undefined for kind {kind!r}")
    return build(lattice).T


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
