import numpy as np
import pytest

from caxial.fields import element_count
from caxial.lattice import Lattice


@pytest.fixture
def lattice_builds(monkeypatch):
    """The specs of the lattices constructed while the test runs."""
    init = Lattice.__init__
    built = []

    def counted(self, spec):
        built.append(spec)
        init(self, spec)
    monkeypatch.setattr(Lattice, "__init__", counted)
    return built


def _canonical_order(space, grid):
    """Canonical ordinals listed in the symbol's (block, within) order."""
    lat = space[0]
    size = element_count(*space)
    side = lat.n_side // grid
    comps = size // lat.n_sites
    idx = np.arange(size).reshape((grid, side) * lat.dim + (comps,))
    order = (tuple(range(0, 2 * lat.dim, 2))
             + tuple(range(1, 2 * lat.dim, 2)) + (2 * lat.dim,))
    return idx.transpose(order).ravel()


def _dense_from_symbol(S, codomain, domain, grid):
    """The block-circulant operator whose symbol is S, in canonical
    ordinals: block (g, h) is C[g - h] for C the inverse DFT of S."""
    dim = codomain[0].dim
    C = np.fft.ifftn(S, axes=tuple(range(dim))).real
    pos = np.indices((grid,) * dim).reshape(dim, -1).T
    diff = (pos[:, None, :] - pos[None, :, :]) % grid
    blocks = C[tuple(np.moveaxis(diff, -1, 0))]       # (G, G, a, b)
    G, _, a, b = blocks.shape
    blocked = blocks.transpose(0, 2, 1, 3).reshape(G * a, G * b)
    out = np.empty_like(blocked)
    rows = _canonical_order(codomain, grid)
    cols = _canonical_order(domain, grid)
    out[np.ix_(rows, cols)] = blocked
    return out


@pytest.fixture
def dense_from_symbol():
    """dense_from_symbol(S, codomain, domain, grid): the operator, in
    canonical ordinals, whose block-Fourier symbol is S (the inverse of
    fields.block_symbol)."""
    return _dense_from_symbol
