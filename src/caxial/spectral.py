"""Spectral certificates for the path-average gauge fixing.

Each function reduces one rigidity or coercivity statement to an exact
eigenvalue / singular-value computation on a desk-scale lattice:

* the curl together with the path averages (tree or all-orderings) leaves
  no nonzero bond field on an open block;
* on a torus the winding averages close the remaining kernel;
* on the kernel of the path averages the curl energy controls the field
  norm blockwise, and together with the block average it is coercive.

Norms here are plain coordinate sums (unit spacing), matching the scale
on which the constants below are stated; there the curl-energy form is
d^T d.  The operators are stacked as CSR and densified for the
factorizations.

The hierarchical scalar change of variables M is certified by its row
groups (`grouped_singular_values` on
`averaging.hierarchical_scalar_row_groups`).  It is a Haar multiresolution
transform, so rows of different groups are orthogonal and the singular
values of M are the union of the groups'; the certificate verifies this
rather than assuming it (docs/indexing.md, "Hierarchical scalar change of
variables", with the Weyl bound and the closed form L**(-dim (N+1)/2)).
"""

from __future__ import annotations

import numpy as np

from . import averaging as av
from . import csr
from .fields import curl_energy_form, ext_d_matrix
from .gaussian import kernel_basis
from .lattice import Lattice


# Relative size, against the smallest squared singular value, up to which
# the cross-group part of M M^T is accepted: the values are then those of
# M to about GRAM_TOL relative.
GRAM_TOL = 1e-12


def grouped_singular_values(matrix, layout) -> np.ndarray:
    """Singular values, largest first, of a matrix, dense or CSR, whose
    rows fall into mutually orthogonal groups with known column supports.

    layout lists (rows per group, supports) pairs in row order: supports is
    an int array with one row of column indices per group, and each pair's
    supports partition the columns.  The certificate (docs/indexing.md)
    verifies that every entry off its group's support is exactly zero and
    that the Frobenius norm of the cross-group part of M M^T is at most
    GRAM_TOL times the smallest squared singular value, taking one batched
    SVD per pair of the (groups, rows, support) stack.  It raises
    LinAlgError if any of this fails; there is no dense fallback.
    """
    m = csr.as_csr(matrix)
    n_rows, n_cols = m.shape
    values, group_of = [], []
    start = 0
    for rows, supports in layout:
        supports = np.asarray(supports)
        n_groups, width = supports.shape
        if not np.array_equal(np.sort(supports, axis=None),
                              np.arange(n_cols)):
            raise np.linalg.LinAlgError("group supports do not partition "
                                        "the columns")
        stop = start + n_groups * rows
        if stop > n_rows:
            raise np.linalg.LinAlgError("layout has more rows than the "
                                        "matrix")
        block = m[start:stop]
        stack = block[np.arange(stop - start)[:, None],
                      np.repeat(supports, rows, axis=0)]
        # a row meets each support column once, so equal counts leave no
        # nonzero entry off the support
        if np.count_nonzero(stack) != np.count_nonzero(block.data):
            raise np.linalg.LinAlgError("a row has an entry off its group's "
                                        "support")
        stack = stack.reshape(n_groups, rows, width)
        values.append(np.linalg.svd(stack, compute_uv=False).ravel())
        # each row's group, named by the group's first row
        group_of.append(np.repeat(np.arange(start, stop, rows), rows))
        start = stop
    if start != n_rows:
        raise np.linalg.LinAlgError("layout leaves matrix rows ungrouped")
    s = np.sort(np.concatenate(values))[::-1]
    row, col, gram = (m @ m.T).entries()
    group_of = np.concatenate(group_of)
    cross = gram[group_of[row] != group_of[col]]
    if not np.linalg.norm(cross) <= GRAM_TOL * s[-1]**2:
        raise np.linalg.LinAlgError("row groups are not orthogonal to "
                                    "within GRAM_TOL")
    return s


def _min_max_sv(mat: np.ndarray):
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[-1]), float(s[0])


def curl_path_kernel(lattice: Lattice, all_orders: bool = True) -> dict:
    """Smallest/largest singular value of the stacked (curl; path-average)
    map on bond fields; a trivial kernel, min_sv above
    gaussian.RANK_TOL * max_sv, means the pair is gauge-rigid."""
    tau = (av.path_average_matrix(lattice) if all_orders
           else av.tree_path_matrix(lattice)).matrix
    lo, hi = _min_max_sv(csr.vstack([ext_d_matrix(lattice), tau]).toarray())
    return {"min_sv": lo, "max_sv": hi}


def toron_closure_kernel(lattice: Lattice) -> dict:
    """As curl_path_kernel (tree version) with the winding averages added;
    on a torus this is what removes the constant-shift kernel."""
    stack = csr.vstack([ext_d_matrix(lattice),
                        av.tree_path_matrix(lattice).matrix,
                        av.toron_average_matrix(lattice)])
    lo, hi = _min_max_sv(stack.toarray())
    return {"min_sv": lo, "max_sv": hi}


def block_curl_ratio(lattice: Lattice) -> dict:
    """Largest value of |A|^2 / |dA|^2 over the kernel of the path average
    on a single open block, with the bound 3 L**dim it must satisfy."""
    B = kernel_basis(av.path_average_matrix(lattice).matrix)
    w = np.linalg.eigvalsh(B.T @ curl_energy_form(lattice) @ B)
    return {"ratio": 1.0 / float(w[0]), "bound": 3.0 * lattice.L**lattice.dim}


def global_coercivity(lattice: Lattice) -> dict:
    """Smallest eigenvalue of |dA|^2 + |block average A|^2 on the kernel of
    the path average (one blocking level), with its guaranteed floor
    1 / (108 L**4)."""
    qb = av.bond_average_matrix(lattice, 1)
    B = kernel_basis(av.path_average_matrix(lattice).matrix)
    form = curl_energy_form(lattice) + (qb.T @ qb).toarray()
    w = np.linalg.eigvalsh(B.T @ form @ B)
    return {"min_eig": float(w[0]), "floor": 1.0 / (108.0 * lattice.L**4)}
