"""Averaging and gauge-fixing operators.

Block averages for scalars and bond fields, toron (winding-loop) averages,
path averages from block centers (single-path and all-orderings versions),
the stacked hierarchical constraint map, the scalar-recovery operator that
turns a bond field into the gauge potential solving the path-average
equations, and the in-block/linking-bond fluctuation parametrization.

All builders return coefficient matrices in canonical ordinals, as CSR
in canonical form (sorted columns, no repeats), together with the lattices
involved.  The local averages are assembled from (row, column, value)
triplets by `_csr`, which sums repeated triplets; the composite maps are
sparse products, sums and row gathers of them.  Checks that need dense
linear algebra densify with `.toarray()`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import Lattice, LatticeError, build_lattice, instance_cache
from .fields import (BOND, PLAQUETTE, SITE, block_symbol, ext_d_matrix,
                     grad_matrix)
from .gaussian import kernel_basis


@instance_cache
def coarsened(lattice: Lattice, n: int = 1) -> Lattice:
    lat = lattice
    for _ in range(n):
        lat = build_lattice(lat.spec.coarsened())
    return lat


def _blocks(fine: Lattice, coarse: Lattice, n: int = 1) -> np.ndarray:
    """Coarse sites x block offsets: row y lists the fine sites of the
    side-L**n block of y in block_offsets order."""
    centers = coarse.sites * fine.L**n
    return fine.site_ordinals(centers[:, None, :] + fine.block_offsets(n))


def _csr(rows, cols, vals, shape) -> sp.csr_matrix:
    """Canonical CSR matrix of (row, col, value) triplets, repeats summed.

    The builders repeat a triplet only with the same value (a bond met by
    several paths of one row, always in the same direction), so the sum
    does not depend on the order in which repeats are added.
    """
    rows, cols = np.ravel(rows), np.ravel(cols)
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(shape[0] + 1))
    return _canonical(sp.csr_matrix(
        (np.broadcast_to(vals, rows.shape)[order], cols[order], indptr),
        shape=shape))


def _canonical(m: sp.csr_matrix) -> sp.csr_matrix:
    """m in canonical form, in place: repeats summed and the column indices
    of each row sorted (a sparse product leaves them unsorted)."""
    m.sum_duplicates()
    return m


def _path_sums(fine: Lattice, row_of, starts, deltas, orders, w,
               n_rows: int) -> sp.csr_matrix:
    """n_rows x bonds matrix of weighted path sums.

    Path start i walks by deltas[i] once per axis order in orders; each step
    adds w times its orientation sign to row row_of[i].  The triplets are
    summed start by start, path by path, step by step.
    """
    walks = [fine.walk_bonds(starts, deltas, order) for order in orders]
    bonds = np.hstack([b for b, _, _ in walks])
    signs = np.hstack([s for _, s, _ in walks])
    step = signs != 0
    rows = np.broadcast_to(np.asarray(row_of)[:, None], step.shape)
    return _csr(rows[step], bonds[step], w * signs[step],
                (n_rows, fine.n_bonds))


def _axis_deltas(axes, length: int, dim: int) -> np.ndarray:
    """Displacements length * e_axis, one row per entry of axes."""
    out = np.zeros((len(axes), dim), dtype=int)
    out[np.arange(len(axes)), axes] = length
    return out


# -- block averages ----------------------------------------------------------

@instance_cache
def scalar_average_matrix(fine: Lattice, n: int = 1) -> sp.csr_matrix:
    """Block average of site fields over side-L**n blocks, weight L**(-dim*n)."""
    coarse = coarsened(fine, n)
    w = float(fine.L) ** (-fine.dim * n)
    members = _blocks(fine, coarse, n)
    rows = np.broadcast_to(np.arange(coarse.n_sites)[:, None], members.shape)
    return _csr(rows, members, w, (coarse.n_sites, fine.n_sites))


def _straight_average(fine: Lattice, n: int) -> sp.csr_matrix:
    """Row (y, mu) of the coarse lattice n levels up: weight L**-(dim+1)n
    times the sum over block sites x of the unweighted sum of the L**n bonds
    on the straight path from x to x + L**n e_mu."""
    coarse = coarsened(fine, n)
    w = float(fine.L) ** (-(fine.dim + 1) * n)
    starts = _blocks(fine, coarse, n)[coarse.bond_sites]
    row_of = np.repeat(np.arange(coarse.n_bonds), starts.shape[1])
    deltas = _axis_deltas(coarse.bond_axes[row_of], fine.L**n, fine.dim)
    return _path_sums(fine, row_of, starts.ravel(), deltas,
                      [range(fine.dim)], w, coarse.n_bonds)


@instance_cache
def _bond_average_one(fine: Lattice) -> sp.csr_matrix:
    """One level of bond blocking: average of straight-path sums."""
    return _straight_average(fine, 1)


@instance_cache
def bond_average_matrix(fine: Lattice, n: int = 1) -> sp.csr_matrix:
    """n-fold bond blocking (composition of single levels; n = 0 blocks
    nothing, the straight paths of length 1)."""
    if n == 0:
        return _straight_average(fine, 0)
    if n == 1:
        return _bond_average_one(fine)
    return _canonical(_bond_average_one(coarsened(fine, n - 1))
                      @ bond_average_matrix(fine, n - 1))


def bond_average_direct_matrix(fine: Lattice, n: int) -> sp.csr_matrix:
    """Direct n-level form: paths of length L**n, weight L**-(dim+1)n.

    Equal to the composed form; kept as an independent cross-check.
    """
    return _straight_average(fine, n)


# -- toron averages ----------------------------------------------------------

@instance_cache
def toron_average_matrix(lattice: Lattice) -> sp.csr_matrix:
    """dim x n_bonds matrix of site-averaged winding-loop sums."""
    if not lattice.is_torus:
        raise LatticeError("toron averages require a torus")
    w = 1.0 / lattice.n_sites
    row_of = np.repeat(np.arange(lattice.dim), lattice.n_sites)
    starts = np.tile(np.arange(lattice.n_sites), lattice.dim)
    deltas = _axis_deltas(row_of, lattice.n_side, lattice.dim)
    return _path_sums(lattice, row_of, starts, deltas, [range(lattice.dim)],
                      w, lattice.dim)


def toron_average_full_matrix(fine: Lattice,
                              n_levels: int) -> sp.csr_matrix:
    """Toron average after n_levels - 1 bond blockings (the last-step map)."""
    qb = bond_average_matrix(fine, n_levels - 1)
    return _canonical(toron_average_matrix(coarsened(fine, n_levels - 1)) @ qb)


# -- path averages from block centers ---------------------------------------

@dataclass(frozen=True)
class PathAverageMap:
    """Rows indexed by (coarse site ordinal, fine site ordinal), x != center."""

    matrix: sp.csr_matrix
    rows: tuple
    fine: Lattice
    coarse: Lattice


def _path_average_build(fine: Lattice, all_orders: bool) -> PathAverageMap:
    coarse = coarsened(fine)
    blocks = _blocks(fine, coarse)
    offsets = fine.block_offsets(1)
    keep = offsets.any(axis=1)                  # every block site but the center
    sites = blocks[:, keep]
    n_rows = sites.size
    ys = np.repeat(np.arange(coarse.n_sites), sites.shape[1])
    rows = tuple(zip(ys.tolist(), sites.ravel().tolist()))
    centers = np.repeat(blocks[:, ~keep], sites.shape[1])
    # within a block the offset is already the centered displacement
    deltas = np.tile(offsets[keep], (coarse.n_sites, 1))
    orders = (list(itertools.permutations(range(fine.dim))) if all_orders
              else [range(fine.dim)])
    matrix = _path_sums(fine, np.arange(n_rows), centers, deltas, orders,
                        1.0 / len(orders), n_rows)
    return PathAverageMap(matrix, rows, fine, coarse)


@instance_cache
def path_average_matrix(fine: Lattice) -> PathAverageMap:
    """All-orderings path average from each block center (1/dim! weights)."""
    return _path_average_build(fine, all_orders=True)


@instance_cache
def tree_path_matrix(fine: Lattice) -> PathAverageMap:
    """Single-path (identity axis order) version; its bonds form the tree."""
    return _path_average_build(fine, all_orders=False)


# -- hierarchical constraint stack ------------------------------------------

@dataclass(frozen=True)
class ConstraintStack:
    """Stack of per-level path-average constraints on a fine bond field.

    Level j rows are the all-orderings path averages of the j-fold bond
    blocking of the field, stacked in level order in one matrix on fine
    bonds; level row counts telescope so that together with one global
    average they exhaust the scalar degrees of freedom.
    """

    matrix: sp.csr_matrix
    rows_per_level: tuple
    fine: Lattice


def axial_constraint_stack(fine: Lattice, k: int) -> ConstraintStack:
    # level 0 is the path averages themselves (the 0-fold blocking is the
    # identity); sp.vstack copies even a single block, so the stack never
    # shares storage with a cached path-average matrix
    levels = [path_average_matrix(coarsened(fine, j)).matrix
              @ bond_average_matrix(fine, j) if j
              else path_average_matrix(fine).matrix for j in range(k)]
    matrix = (sp.vstack(levels, format="csr") if levels
              else sp.csr_matrix((0, fine.n_bonds)))
    return ConstraintStack(_canonical(matrix),
                           tuple(m.shape[0] for m in levels), fine)


def hierarchical_scalar_bijection_matrix(fine: Lattice,
                                         n_levels: int) -> sp.csr_matrix:
    """Square change of variables on fine scalars: one fully blocked average
    plus, per level j, the in-block differences of the level-j averages
    against their block centers.

    Row counts telescope: 1 + sum_j (s_{N-j} - s_{N-j-1}) = n_sites, so the
    map is square; invertibility certifies that the hierarchy of averages
    determines the scalar field.
    """
    rows = [scalar_average_matrix(fine, n_levels)]
    for j in range(n_levels):
        qj = scalar_average_matrix(fine, j)
        blocks = _level_blocks(fine, j)
        keep = coarsened(fine, j).block_offsets(1).any(axis=1)
        # block by block, each non-center site against the block's center
        centers = np.repeat(blocks[:, ~keep], keep.sum(), axis=1)
        rows.append(qj[blocks[:, keep].ravel()] - qj[centers.ravel()])
    return _canonical(sp.vstack(rows, format="csr"))


def _level_blocks(fine: Lattice, j: int) -> np.ndarray:
    """Level-(j+1) sites x block offsets: the level-j sites of each block."""
    lat_j = coarsened(fine, j)
    return _blocks(lat_j, coarsened(lat_j, 1))


def hierarchical_scalar_row_groups(fine: Lattice, n_levels: int) -> tuple:
    """Row groups of hierarchical_scalar_bijection_matrix, in row order, as
    (rows per group, supports) pairs for spectral.grouped_singular_values.

    The top row is one group on every site.  Level j has one group of
    L**dim - 1 rows per level-(j+1) block B, the differences of the level-j
    averages in B against B's center; its supports array, of shape
    (n_{j+1}, L**(dim (j+1))), lists the fine sites of each B.  They are
    gathered from the blocks the matrix is built from: the fine sites the
    level-j averages average, over the level-j sites of each B.
    """
    layout = [(1, np.arange(fine.n_sites)[None, :])]
    for j in range(n_levels):
        members = _blocks(fine, coarsened(fine, j), j)
        blocks = _level_blocks(fine, j)
        layout.append((blocks.shape[1] - 1,
                       members[blocks].reshape(len(blocks), -1)))
    return tuple(layout)


# -- scalar recovery ---------------------------------------------------------

@instance_cache
def scalar_recovery_matrix(lattice: Lattice) -> sp.csr_matrix:
    """Site x bond matrix turning Z into the potential mu with
    path-average(Z + grad mu) = 0 on every block and block-average(mu) = 0.

    mu(x) = -(tau Z)(y,x) + L**-dim * sum_{x' != y} (tau Z)(y,x') for x in
    the block of y, and at centers mu(y) = L**-dim * sum_{x' != y}(tau Z).
    """
    tau = path_average_matrix(lattice)
    coarse = tau.coarse
    w = float(lattice.L) ** (-lattice.dim)
    ys, xs = np.array(tau.rows).T
    rows = np.arange(len(ys))
    # block_of[x]: the coarse site whose block holds the fine site x
    block_of = np.empty(lattice.n_sites, dtype=int)
    block_of[xs] = ys
    block_of[lattice.site_ordinals(coarse.sites * lattice.L)] = \
        np.arange(coarse.n_sites)
    # the rows of each block summed in row order, and each row moved to
    # its site (the centers get none)
    block_sum = _csr(ys, rows, 1.0, (coarse.n_sites, len(rows))) @ tau.matrix
    at_sites = _csr(xs, rows, 1.0, (lattice.n_sites, len(rows))) @ tau.matrix
    return _canonical(w * block_sum[block_of] - at_sites)


# -- kernel identities as block-Fourier symbols ------------------------------

def closed_average_symbols(fine: Lattice):
    """Symbols (T, K), over the blocks of one blocking step, of
    T = ext_d(coarse) Q_b and K = ext_d(fine): T vanishes on ker K when the
    block average of every curl-free field is curl-free."""
    coarse = coarsened(fine)
    grid = coarse.n_side
    qb = block_symbol(bond_average_matrix(fine, 1), (coarse, BOND),
                      (fine, BOND), grid)
    dc = block_symbol(ext_d_matrix(coarse), (coarse, PLAQUETTE),
                      (coarse, BOND), grid)
    d = block_symbol(ext_d_matrix(fine), (fine, PLAQUETTE), (fine, BOND),
                     grid)
    return dc @ qb, d


def recovery_inverse_symbols(fine: Lattice):
    """Symbols (T, K), over the blocks of one blocking step, of
    T = recovery grad + 1 and K = Q_s: T vanishes on ker K when the recovery
    operator inverts minus the gradient on zero-average scalars."""
    coarse = coarsened(fine)
    grid = coarse.n_side
    m = block_symbol(scalar_recovery_matrix(fine), (fine, SITE), (fine, BOND),
                     grid)
    g = block_symbol(grad_matrix(fine), (fine, BOND), (fine, SITE), grid)
    qs = block_symbol(scalar_average_matrix(fine, 1), (coarse, SITE),
                      (fine, SITE), grid)
    return m @ g + np.eye(m.shape[-2]), qs


# -- fluctuation parametrization --------------------------------------------

@dataclass(frozen=True)
class FluctuationSplit:
    """Partition of unit-lattice bonds for the fluctuation integral.

    in_block  -- bonds inside blocks (both endpoints in one block)
    linking   -- bonds joining adjacent blocks, grouped by coarse bond
    central   -- central[j] is the central bond of coarse bond j
    noncentral-- linking bonds that are not central
    chi_star  -- 0/1 diagonal vector zeroing exactly the central bonds
    """

    in_block: tuple
    linking: tuple
    central: tuple
    noncentral: tuple
    chi_star: np.ndarray
    lattice: Lattice
    coarse: Lattice


@instance_cache
def fluctuation_split(lattice: Lattice) -> FluctuationSplit:
    """The linking bonds of coarse bond (y, mu) leave the block of y through
    its +mu face: they start at the face sites L y + half e_mu + t, t over
    the transverse offsets in block_offsets order, so the central bond
    (t = 0) is the middle one."""
    coarse = coarsened(lattice)
    if coarse.n_sites == lattice.n_sites:
        raise LatticeError("lattice has no blocking level")
    off = lattice.block_offsets(1)
    half = (lattice.L - 1) // 2
    faces = np.stack([off[off[:, mu] == half] for mu in range(lattice.dim)])
    centers = lattice.L * coarse.sites[coarse.bond_sites]
    sites = lattice.site_ordinals(centers[:, None] + faces[coarse.bond_axes])
    bonds = lattice.bond_index[sites, coarse.bond_axes[:, None]]
    mid = bonds.shape[1] // 2
    central = bonds[:, mid]
    in_block = np.setdiff1d(np.arange(lattice.n_bonds), bonds)
    noncentral = np.delete(bonds, mid, axis=1)
    chi = np.ones(lattice.n_bonds)
    chi[central] = 0.0
    return FluctuationSplit(tuple(in_block.tolist()),
                            tuple(bonds.ravel().tolist()),
                            tuple(central.tolist()),
                            tuple(noncentral.ravel().tolist()), chi,
                            lattice, coarse)


def solve_central(lattice: Lattice, values: np.ndarray) -> np.ndarray:
    """Central-bond values making every coarse bond average vanish, for a
    bond field or for each column of a (bonds, m) array of them.

    The coarse-bond average is linear with coefficient L**-dim on its central
    bond, so each central value is determined locally by the other bonds of
    the two blocks it joins.
    """
    central = list(fluctuation_split(lattice).central)
    qb = bond_average_matrix(lattice, 1)
    c0 = np.asarray(qb[np.arange(len(central)), central]).ravel()
    if not c0.all():
        raise LatticeError("central bond has zero averaging coefficient")
    v = np.array(values, dtype=float)
    v[central] = 0.0
    return (-(qb @ v).T / c0).T


@instance_cache
def fluctuation_basis(lattice: Lattice) -> np.ndarray:
    """Columns parametrizing {bond average = 0, path average = 0}.

    First columns: an orthonormal basis of the path-average kernel on
    in-block bonds, completed by the induced central values; remaining
    columns: one per non-central linking bond, again with central values
    solved for.  The map is injective and its range is exactly the
    homogeneous constraint surface.
    """
    split = fluctuation_split(lattice)
    # dense for the kernel basis's SVD
    tau = path_average_matrix(lattice).matrix.toarray()
    z1 = list(split.in_block)
    if np.any(tau[:, list(split.linking)] != 0):
        raise LatticeError("path averages touch linking bonds")
    kernel = kernel_basis(tau[:, z1])
    n_kernel, noncentral = kernel.shape[1], list(split.noncentral)
    cols = np.zeros((lattice.n_bonds, n_kernel + len(noncentral)))
    cols[z1, :n_kernel] = kernel
    cols[noncentral, n_kernel + np.arange(len(noncentral))] = 1.0
    cols[list(split.central)] = solve_central(lattice, cols)
    return cols
