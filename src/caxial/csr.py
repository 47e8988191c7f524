"""Canonical CSR matrices: the one sparse format of the package.

The lattice operators (gradient, curl, block, path and winding averages)
are local maps, stored as compressed sparse rows in canonical form: the
column indices of each row ascend and none repeats.  `CSR` keeps exactly
that and implements only what the package does with it: triplet assembly
(`from_triplets`), products with another CSR or a dense array on either
side, scalar multiples, differences, row gathers and slices, element
fetches, `vstack`, `as_csr` and `toarray`.  No other module reads the
layout arrays `indices` and `indptr`.  The arrays are read-only, so an
operator can be cached and shared, and every operation returns a new
matrix or array; a scalar multiple shares the layout and the row index
of its matrix and holds only new values.

The arithmetic is that of compressed-sparse kernels (`scipy.sparse`),
reproduced bit for bit:

* an entry of a product is the sum of its terms a_ik b_kj (or a_ik x_kj),
  added left to right from 0 in ascending inner index k;
* products and differences drop the entries that come out exactly 0, and
  assembly keeps them (a sum of repeats that cancels is stored as 0);
* repeated triplets are summed left to right in the order given.

Sums are never left to `np.sum` or `np.add.reduceat`, whose pairwise order
differs from that on runs of eight or more terms: `np.bincount` adds its
weights strictly in input order, and a product with a dense array adds one
term per row at a time (`_slots`).  A dense product is C-ordered; a dense
array times a CSR is the transpose of one, so it is F-ordered, as in the
compressed-sparse-column kernels.  Numpy defers every binary operator with
a CSR to the CSR (`__array_ufunc__ = None`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _keyed(keys, vals, shape, drop_zeros: bool) -> "CSR":
    """The CSR matrix of entries key = row * n_cols + col, repeats summed
    left to right from 0 in their given order; entries summing to exactly
    0 are dropped when drop_zeros."""
    step = np.diff(keys)
    if np.any(step < 0):
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        step = np.diff(keys)
    if not step.all():
        first = np.concatenate([[True], step != 0])
        vals = np.bincount(np.cumsum(first) - 1, weights=vals)
        keys = keys[first]
    if drop_zeros:
        kept = vals != 0
        keys, vals = keys[kept], vals[kept]
    n_cols = max(shape[1], 1)
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * n_cols)
    return CSR(vals, keys % n_cols, indptr, shape)


def from_triplets(rows, cols, vals, shape) -> "CSR":
    """Canonical CSR matrix of (row, col, value) triplets, repeats summed
    in the order given; vals may be a scalar for every triplet."""
    keys = np.ravel(rows) * np.int64(shape[1]) + np.ravel(cols)
    # a copy: the matrix must not share the caller's writeable values
    vals = np.array(np.broadcast_to(vals, keys.shape), dtype=float)
    return _keyed(keys, vals, shape, drop_zeros=False)


def as_csr(a) -> "CSR":
    """A CSR matrix itself, or the nonzero entries of a dense one."""
    if isinstance(a, CSR):
        return a
    a = np.atleast_2d(np.asarray(a, dtype=float))
    rows, cols = np.nonzero(a)
    return _keyed(rows * np.int64(a.shape[1]) + cols, a[rows, cols], a.shape,
                  drop_zeros=False)


def vstack(blocks) -> "CSR":
    """The CSR blocks, each of the same width, stacked row-wise."""
    n_cols = blocks[0].shape[1]
    if any(b.shape[1] != n_cols for b in blocks):
        raise ValueError("vstack: blocks differ in width")
    starts = np.cumsum([0] + [b.nnz for b in blocks])
    indptr = np.concatenate([[0]] + [b.indptr[1:] + s
                                     for b, s in zip(blocks, starts)])
    return CSR(np.concatenate([b.data for b in blocks]),
               np.concatenate([b.indices for b in blocks]), indptr,
               (sum(b.shape[0] for b in blocks), n_cols))


class CSR:
    """A read-only canonical CSR matrix of floats.

    data, indices -- the stored values and their columns, row by row
    indptr        -- row i holds positions indptr[i]:indptr[i+1]
    """

    __array_ufunc__ = None

    def __init__(self, data, indices, indptr, shape):
        self.data = _frozen(np.asarray(data, dtype=float))
        self.indices = _frozen(np.asarray(indices, dtype=np.intp))
        self.indptr = _frozen(np.asarray(indptr, dtype=np.intp))
        self.shape = (int(shape[0]), int(shape[1]))

    @property
    def nnz(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"<CSR {self.shape[0]}x{self.shape[1]}, {self.nnz} stored>"

    @cached_property
    def _rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return _frozen(np.repeat(np.arange(self.shape[0]),
                                 np.diff(self.indptr)))

    def entries(self):
        """(rows, cols, values) of the stored entries, row-major."""
        return self._rows, self.indices, self.data

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._rows, self.indices] = self.data
        return out

    @cached_property
    def T(self) -> "CSR":
        """The transpose, canonical."""
        t = _keyed(self.indices * np.int64(self.shape[0]) + self._rows,
                   self.data, self.shape[::-1], drop_zeros=False)
        t.__dict__["T"] = self
        return t

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        out = CSR(self.data * scalar, self.indices, self.indptr, self.shape)
        out.__dict__["_rows"] = self._rows      # the layout is shared
        return out

    __rmul__ = __mul__

    def __sub__(self, other):
        """The difference, exact zeros dropped: a - b is a + (-b) exactly,
        so each entry sums a and -b from 0."""
        if not isinstance(other, CSR):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        n = np.int64(self.shape[1])
        keys = np.concatenate([self._rows * n + self.indices,
                               other._rows * n + other.indices])
        return _keyed(keys, np.concatenate([self.data, -other.data]),
                      self.shape, drop_zeros=True)

    def __matmul__(self, other):
        if isinstance(other, CSR):
            return self._times_csr(other)
        x = np.asarray(other, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ValueError(f"matmul: {self.shape} and {x.shape}")
        return self._times_dense(x)

    def __rmatmul__(self, other):
        """other @ self = (self^T other^T)^T, an F-ordered array."""
        x = np.asarray(other, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.shape[0]:
            raise ValueError(f"matmul: {x.shape} and {self.shape}")
        return self.T._times_dense(np.ascontiguousarray(x.T)).T

    def _times_csr(self, other: "CSR") -> "CSR":
        """Every term a_ik b_kj in order of the entries of self, then of
        row k of other, so each output entry meets its terms in ascending
        k; summed per entry, zeros dropped."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"matmul: {self.shape} and {other.shape}")
        terms = other[self.indices]     # row k of other per entry a_ik
        a = terms._rows
        n = other.shape[1]
        return _keyed(self._rows[a] * np.int64(n) + terms.indices,
                      self.data[a] * terms.data, (self.shape[0], n),
                      drop_zeros=True)

    @cached_property
    def _slots(self) -> tuple:
        """The rows by decreasing length (stable), and the stored entries
        slot by slot: slot s holds entry s of each row with more than s
        entries, in that row order, as (bounds, values, columns)."""
        lengths = np.diff(self.indptr)
        perm = np.argsort(-lengths, kind="stable")
        rank = np.empty_like(perm)
        rank[perm] = np.arange(perm.size)
        # n_s rows have more than s entries: the first n_s of perm
        n_s = perm.size - np.cumsum(np.bincount(lengths))[:-1]
        bounds = np.concatenate([[0], np.cumsum(n_s)])
        at = (bounds[np.arange(self.nnz) - self.indptr[self._rows]]
              + rank[self._rows])
        vals, cols = np.empty(self.nnz), np.empty(self.nnz, dtype=np.intp)
        vals[at], cols[at] = self.data, self.indices
        return perm, bounds, vals, cols

    def _times_dense(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a float x: bincount adds each row's terms in order,
        and a matrix x is taken slot by slot, one term added to each row at
        a time."""
        if x.ndim == 1:
            return np.bincount(self._rows, weights=self.data * x[self.indices],
                               minlength=self.shape[0])
        perm, bounds, vals, cols = self._slots
        y = np.zeros((self.shape[0], x.shape[1]))
        term = np.empty_like(y)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            t = term[:hi - lo]
            np.take(x, cols[lo:hi], axis=0, out=t, mode="clip")
            t *= vals[lo:hi, None]
            y[:hi - lo] += t
        if np.any(perm[1:] < perm[:-1]):
            y[perm] = y.copy()
        return y

    # -- indexing ------------------------------------------------------------

    def __getitem__(self, key):
        """m[i:j] and m[rows] (an int array) are the rows, as CSR; m[r, c]
        for int arrays that broadcast is the dense array of entries."""
        if isinstance(key, tuple):
            return self._fetch(*key)
        rows = np.arange(self.shape[0])[key]
        if rows.ndim != 1:
            raise IndexError("rows must be a slice or a 1-d int array")
        lengths = np.diff(self.indptr)[rows]
        indptr = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(lengths, out=indptr[1:])
        entry_of = np.repeat(np.arange(rows.size), lengths)
        pos = np.arange(indptr[-1]) - indptr[entry_of] \
            + self.indptr[rows][entry_of]
        return CSR(self.data[pos], self.indices[pos], indptr,
                   (rows.size, self.shape[1]))

    def _fetch(self, rows, cols) -> np.ndarray:
        """The entries at (rows, cols), broadcast together; 0 where none
        is stored."""
        n = np.int64(self.shape[1])
        keys = self._rows * n + self.indices
        want = np.asarray(rows) * n + cols
        # a search past the last entry meets -1, which no position has
        at = np.searchsorted(keys, want)
        hit = np.append(keys, -1)[at] == want
        return np.where(hit, np.append(self.data, 0.0)[at], 0.0)
