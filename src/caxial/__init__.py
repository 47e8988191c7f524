"""Covariant axial gauge fixing and block-averaging RG for abelian lattice
gauge fields, verified by exact finite-dimensional linear algebra."""

from .lattice import (LatticeSpec, Lattice, LatticeSymmetry, LatticeError,
                      build_lattice, open_cube, unit_torus, fine_torus,
                      TORUS, OPEN_CUBE)
from .fields import (grad_matrix, ext_d_matrix, codiff, random_field,
                     scale_field, apply_symmetry)

__version__ = "0.1.0"
