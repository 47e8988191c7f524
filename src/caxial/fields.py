"""Fields on lattice elements and the discrete exterior calculus.

Conventions (fixed once, used by every other module):

* derivatives are divided differences: (grad f)(x, x+eta*e_mu) =
  (f(x+eta*e_mu) - f(x)) / eta, and the plaquette curl carries the same
  1/eta factor;
* inner products are weighted by eta**dim, so that on unit lattices they
  reduce to plain sums;
* the adjoint of a map between same-spacing spaces is the plain matrix
  transpose (the uniform weights cancel); between different spacings it
  picks up the ratio of the weights.

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
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import (Lattice, LatticeError, LatticeSpec, build_lattice,
                      fine_torus, instance_cache)

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


@dataclass(frozen=True)
class SpaceDescriptor:
    """A field space: a lattice together with the element kind."""

    lattice: Lattice
    kind: str

    @property
    def size(self) -> int:
        return element_count(self.lattice, self.kind)

    @property
    def weight(self) -> float:
        """Inner-product weight eta**dim of this space."""
        return self.lattice.spacing**self.lattice.dim


class Field:
    kind = None

    def __init__(self, lattice: Lattice, values):
        values = np.asarray(values, dtype=float)
        n = element_count(lattice, self.kind)
        if values.shape != (n,):
            raise LatticeError(
                f"{type(self).__name__} needs {n} values, got {values.shape}")
        self.lattice = lattice
        self.values = values

    @classmethod
    def zeros(cls, lattice: Lattice):
        return cls(lattice, np.zeros(element_count(lattice, cls.kind)))

    @property
    def descriptor(self) -> SpaceDescriptor:
        return SpaceDescriptor(self.lattice, self.kind)

    def copy(self):
        return type(self)(self.lattice, self.values.copy())

    def __add__(self, other):
        self._check_same(other)
        return type(self)(self.lattice, self.values + other.values)

    def __sub__(self, other):
        self._check_same(other)
        return type(self)(self.lattice, self.values - other.values)

    def __mul__(self, c):
        return type(self)(self.lattice, self.values * float(c))

    __rmul__ = __mul__

    def _check_same(self, other):
        if other.lattice is not self.lattice or other.kind != self.kind:
            raise LatticeError("field descriptors do not match")


class ScalarField(Field):
    kind = SITE

    def at(self, coords) -> float:
        return self.values[self.lattice.site_ordinal(coords)]


class BondField(Field):
    kind = BOND


class PlaquetteField(Field):
    kind = PLAQUETTE


FIELD_CLASS = {SITE: ScalarField, BOND: BondField, PLAQUETTE: PlaquetteField}


@dataclass
class LinearMap:
    """A linear operator between field spaces with explicit coefficients,
    dense or sparse."""

    matrix: np.ndarray | sp.spmatrix
    domain: SpaceDescriptor
    codomain: SpaceDescriptor

    def __post_init__(self):
        m = self.matrix
        shape = (self.codomain.size, self.domain.size)
        if m.shape != shape:
            raise LatticeError(f"matrix shape {m.shape} != {shape}")

    def __call__(self, field: Field) -> Field:
        if field.descriptor != self.domain:
            raise LatticeError("field does not match operator domain")
        out = self.matrix @ field.values
        return FIELD_CLASS[self.codomain.kind](self.codomain.lattice,
                                               np.asarray(out).ravel())

    def adjoint(self) -> "LinearMap":
        """Adjoint with respect to the weighted inner products."""
        ratio = self.codomain.weight / self.domain.weight
        return LinearMap(ratio * self.matrix.T, self.codomain, self.domain)


# -- block translations on a torus -------------------------------------------

def _block_ordinals(space: SpaceDescriptor, grid: int):
    """The ordinals of a torus space in an array indexed by (block position,
    offset) per lattice axis and then the component, and the size of one
    block."""
    lat = space.lattice
    if not lat.is_torus or grid < 1 or lat.n_side % grid:
        raise LatticeError(f"a {lat.n_side}-site side does not split into "
                           f"{grid} block positions on a torus")
    side = lat.n_side // grid
    comps = space.size // lat.n_sites
    split = (grid, side) * lat.dim + (comps,)
    return np.arange(space.size).reshape(split), side**lat.dim * comps


def block_symbol(matrix, codomain: SpaceDescriptor, domain: SpaceDescriptor,
                 grid: int) -> np.ndarray:
    """Block-Fourier symbol of an operator, dense or sparse, between torus
    spaces.

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
    dim = domain.lattice.dim
    rows, a = _block_ordinals(codomain, grid)
    cols, b = _block_ordinals(domain, grid)
    m = sp.csr_matrix(matrix, dtype=float)
    if m.shape != (codomain.size, domain.size):
        raise LatticeError(f"matrix shape {m.shape} != "
                           f"{(codomain.size, domain.size)}")
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


def as_matrix(name: str, lattice: Lattice) -> LinearMap:
    """Named calculus operator as an explicit LinearMap."""
    sd = lambda kind: SpaceDescriptor(lattice, kind)
    if name == "grad":
        return LinearMap(grad_matrix(lattice), sd(SITE), sd(BOND))
    if name == "ext_d":
        return LinearMap(ext_d_matrix(lattice), sd(BOND), sd(PLAQUETTE))
    if name == "codiff_bond":
        return as_matrix("grad", lattice).adjoint()
    if name == "codiff_plaquette":
        return as_matrix("ext_d", lattice).adjoint()
    raise LatticeError(f"unknown operator {name!r}")


def codiff(kind: str, lattice: Lattice) -> LinearMap:
    """Weighted adjoint of grad (kind='bond') or of ext_d (kind='plaquette')."""
    if kind == BOND:
        return as_matrix("codiff_bond", lattice)
    if kind == PLAQUETTE:
        return as_matrix("codiff_plaquette", lattice)
    raise LatticeError(f"codiff undefined for kind {kind!r}")


# -- field-level operations --------------------------------------------------

def grad(f: ScalarField) -> BondField:
    return BondField(f.lattice, grad_matrix(f.lattice) @ f.values)


def ext_d(A: BondField) -> PlaquetteField:
    return PlaquetteField(A.lattice, ext_d_matrix(A.lattice) @ A.values)


def inner(f: Field, g: Field) -> float:
    """Weighted inner product eta**dim * sum(f*g)."""
    f._check_same(g)
    return f.descriptor.weight * float(f.values @ g.values)


def norm_sq(f: Field) -> float:
    return inner(f, f)


def scale_field(A: BondField, n: int) -> BondField:
    """Reinterpret a bond field at spacing finer by L**n.

    In centered integer coordinates the bond sets coincide, so the map is a
    relabeling of the descriptor with values multiplied by L**(n(dim-2)/2).
    Negative n inverts the operation.  The curl energy is invariant.
    """
    lat = A.lattice
    new_lat = build_lattice(lat.spec.rescaled(n))
    factor = float(lat.L) ** (n * (lat.dim - 2) / 2.0)
    return BondField(new_lat, factor * A.values)


def apply_symmetry(r, A):
    """Transformed field A_r with A_r(b) = A(r^{-1} b), signs included.

    Works for ScalarField (plain relabeling) and BondField (orientation
    signs from the signed axis permutation).
    """
    lat = A.lattice
    out = np.empty_like(A.values)
    if A.kind == SITE:
        dest = lat.site_permutation(r)
        out[dest] = A.values
        return ScalarField(lat, out)
    if A.kind == BOND:
        dest, sign = lat.bond_permutation(r)
        out[dest] = sign * A.values
        return BondField(lat, out)
    raise LatticeError("symmetry action implemented for site and bond fields")


def random_field(lattice: Lattice, kind: str, rng) -> Field:
    return FIELD_CLASS[kind](lattice,
                             rng.standard_normal(element_count(lattice, kind)))
