"""Spectral certificates for the path-average gauge fixing.

Each function reduces one rigidity or coercivity statement to an exact
eigenvalue / singular-value computation on a desk-scale lattice:

* the curl together with the path averages (tree or all-orderings) leaves
  no nonzero bond field on an open block;
* on a torus the winding averages close the remaining kernel;
* on the kernel of the path averages the curl energy controls the field
  norm blockwise, and together with the block average it is coercive.

Norms here are plain coordinate sums (unit spacing), matching the scale
on which the constants below are stated.
"""

from __future__ import annotations

import numpy as np

from . import averaging as av
from .fields import ext_d_matrix
from .gaussian import RANK_TOL, kernel_basis
from .lattice import Lattice


def _min_max_sv(mat: np.ndarray):
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[-1]), float(s[0])


def curl_path_kernel(lattice: Lattice, all_orders: bool = True) -> dict:
    """Smallest/largest singular value of the stacked (curl; path-average)
    map on bond fields; a trivial kernel means the pair is gauge-rigid."""
    d = np.asarray(ext_d_matrix(lattice))
    tau = (av.path_average_matrix(lattice) if all_orders
           else av.tree_path_matrix(lattice)).matrix
    lo, hi = _min_max_sv(np.vstack([d, tau]))
    return {"min_sv": lo, "max_sv": hi, "trivial": lo > RANK_TOL * hi}


def toron_closure_kernel(lattice: Lattice) -> dict:
    """As curl_path_kernel (tree version) with the winding averages added;
    on a torus this is what removes the constant-shift kernel."""
    d = np.asarray(ext_d_matrix(lattice))
    stack = np.vstack([d, av.tree_path_matrix(lattice).matrix,
                       av.toron_average_matrix(lattice)])
    lo, hi = _min_max_sv(stack)
    return {"min_sv": lo, "max_sv": hi, "trivial": lo > RANK_TOL * hi}


def block_curl_ratio(lattice: Lattice) -> dict:
    """Largest value of |A|^2 / |dA|^2 over the kernel of the path average
    on a single open block, with the bound 3 L**dim it must satisfy."""
    d = np.asarray(ext_d_matrix(lattice))
    tau = av.path_average_matrix(lattice).matrix
    B = kernel_basis(tau)
    w = np.linalg.eigvalsh(B.T @ (d.T @ d) @ B)
    ratio = 1.0 / float(w[0])
    return {"ratio": ratio, "bound": 3.0 * lattice.L**lattice.dim,
            "min_curl_eig": float(w[0])}


def global_coercivity(lattice: Lattice) -> dict:
    """Smallest eigenvalue of |dA|^2 + |block average A|^2 on the kernel of
    the path average (one blocking level), with its guaranteed floor
    1 / (108 L**4)."""
    d = np.asarray(ext_d_matrix(lattice))
    qb = av.bond_average_matrix(lattice, 1)
    tau = av.path_average_matrix(lattice).matrix
    B = kernel_basis(tau)
    form = d.T @ d + qb.T @ qb
    w = np.linalg.eigvalsh(B.T @ form @ B)
    return {"min_eig": float(w[0]), "floor": 1.0 / (108.0 * lattice.L**4)}
