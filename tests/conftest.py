from collections import Counter

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


# -- scipy.sparse, the oracle of caxial.csr -----------------------------------

def scipy_csr(m):
    """The scipy CSR matrix with the arrays of a caxial CSR."""
    import scipy.sparse as sp
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def assert_same_csr(want, got):
    """got (a caxial CSR) has the indptr, indices and data of the scipy
    matrix want in canonical form (summed and sorted, as it was taken)."""
    want = want.tocsr(copy=True)
    want.sum_duplicates()
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _scipy_triplets(rows, cols, vals, shape):
    """The triplet assembly of caxial before caxial.csr: a stable row sort,
    one csr_matrix, sum_duplicates."""
    import scipy.sparse as sp
    rows, cols = np.ravel(rows), np.ravel(cols)
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(shape[0] + 1))
    mat = sp.csr_matrix(
        (np.broadcast_to(vals, rows.shape)[order], cols[order], indptr),
        shape=shape)
    mat.sum_duplicates()
    return mat


def _assert_same_dense(want, got):
    want = np.asarray(want)
    assert np.array_equal(got, want.reshape(got.shape))
    if got.ndim == 2 and min(got.shape) > 1:
        # the memory order decides the digits of later BLAS products
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous


@pytest.fixture
def scipy_checked(monkeypatch):
    """While the test runs, every caxial.csr operation is also done by
    scipy.sparse on the same operands, and its result must equal scipy's bit
    for bit (dense results in memory order too).  Each operation's operands
    are then the scipy construction's, so every matrix built from them is
    too.  Returns a Counter of the operations checked."""
    import scipy.sparse as sp
    from caxial import csr
    from caxial.csr import CSR
    checked = Counter()

    def hook(owner, name, reference):
        original = getattr(owner, name)

        def run(*args):
            got = original(*args)
            want = reference(*args)
            if isinstance(got, CSR):
                assert_same_csr(want, got)
            else:
                _assert_same_dense(want.toarray() if sp.issparse(want)
                                   else want, got)
            checked[name] += 1
            return got
        monkeypatch.setattr(owner, name, run)

    def sp_or_dense(x):
        return scipy_csr(x) if isinstance(x, CSR) else x

    hook(csr, "from_triplets", _scipy_triplets)
    hook(csr, "as_csr", lambda a: scipy_csr(a) if isinstance(a, CSR)
         else sp.csr_matrix(np.asarray(a, float)))
    hook(csr, "vstack", lambda blocks: sp.vstack(
        [scipy_csr(b) for b in blocks], format="csr"))
    hook(CSR, "__matmul__", lambda a, b: scipy_csr(a) @ sp_or_dense(b))
    hook(CSR, "__rmatmul__", lambda a, x: x @ scipy_csr(a))
    hook(CSR, "__sub__", lambda a, b: scipy_csr(a) - scipy_csr(b))
    hook(CSR, "__mul__", lambda a, s: scipy_csr(a) * s)
    hook(CSR, "__rmul__", lambda a, s: s * scipy_csr(a))
    hook(CSR, "__getitem__", lambda a, key: scipy_csr(a)[key])
    transpose = CSR.T.func
    monkeypatch.setattr(CSR, "T", property(lambda a: _checked_transpose(
        a, transpose, checked)))
    return checked


def _checked_transpose(a, transpose, checked):
    got = transpose(a)
    assert_same_csr(scipy_csr(a).T.tocsr(), got)
    checked["T"] += 1
    return got
