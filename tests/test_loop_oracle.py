"""The array-built geometry and operators against per-element loop references.

`LoopLattice` and the `loop_*` builders below are the element-by-element
implementations the package used before its lattices and operators were
built with numpy index arithmetic: a coordinate dict for site lookups, one
Python step per path bond and one `+=` per matrix entry.  They are kept
here only as references; every comparison is exact (`np.array_equal`).
"""

import itertools
from collections import namedtuple

import numpy as np
import pytest
import scipy.sparse as sp

from caxial import averaging as av
from caxial.csr import CSR
from caxial.fields import (BOND, PLAQUETTE, apply_symmetry, codiff,
                           curl_energy_form, ext_d_matrix, grad_matrix,
                           laplacian_matrix)
from caxial.gauge_ops import _element_points, decay_profile, get_context
from caxial.lattice import (OPEN_CUBE, TORUS, Lattice, LatticeError,
                            LatticeSpec, build_lattice, clear_caches)


# -- loop references -----------------------------------------------------------

# an oriented path: (bond ordinal, +-1) steps from site start to end
LoopPath = namedtuple("LoopPath", "steps start end")


def apply_site(r, coords):
    """Coordinates of the image of a site under the symmetry r."""
    out = [0] * len(r.perm)
    for mu, c in enumerate(coords):
        out[r.perm[mu]] = r.signs[mu] * c
    return tuple(out)

class LoopLattice:
    """Sites, bonds and plaquettes enumerated one element at a time."""

    def __init__(self, spec):
        self.spec = spec
        self.dim = spec.dim
        self.L = spec.L
        self.n_side = spec.n_side
        self.half = (self.n_side - 1) // 2
        self.is_torus = spec.boundary == TORUS
        rng = range(-self.half, self.half + 1)
        self.sites = np.array(list(itertools.product(rng, repeat=self.dim)),
                              dtype=int)
        self.n_sites = len(self.sites)
        self._site_lookup = {tuple(c): i for i, c in enumerate(self.sites)}
        bonds = []
        for s in range(self.n_sites):
            for mu in range(self.dim):
                if self.shift_site(s, mu) is not None:
                    bonds.append((s, mu))
        self.bonds = bonds
        self.n_bonds = len(bonds)
        self._bond_lookup = {b: i for i, b in enumerate(bonds)}
        plaqs = []
        for s in range(self.n_sites):
            for mu in range(self.dim):
                for nu in range(mu + 1, self.dim):
                    if (self.shift_site(s, mu) is not None
                            and self.shift_site(s, nu) is not None):
                        plaqs.append((s, mu, nu))
        self.plaquettes = plaqs
        self.n_plaquettes = len(plaqs)

    def wrap(self, coords):
        n = self.n_side
        return tuple((c + self.half) % n - self.half for c in coords)

    def site_ordinal(self, coords):
        coords = tuple(int(c) for c in coords)
        if self.is_torus:
            coords = self.wrap(coords)
        try:
            return self._site_lookup[coords]
        except KeyError:
            raise LatticeError(f"site {coords} not on lattice") from None

    def site_coords(self, ordinal):
        return tuple(self.sites[ordinal])

    def shift_site(self, ordinal, axis, steps=1):
        c = list(self.sites[ordinal])
        c[axis] += steps
        if self.is_torus:
            return self._site_lookup[self.wrap(c)]
        return self._site_lookup.get(tuple(c))

    def centered_delta(self, y_coords, x_coords):
        d = [int(x) - int(y) for y, x in zip(y_coords, x_coords)]
        if self.is_torus:
            n = self.n_side
            d = [(c + n // 2) % n - n // 2 for c in d]
        return tuple(d)

    def bond_ordinal(self, site_ordinal, axis):
        try:
            return self._bond_lookup[(site_ordinal, axis)]
        except KeyError:
            raise LatticeError("no such bond") from None

    def step(self, site_ordinal, axis, direction):
        if direction > 0:
            nxt = self.shift_site(site_ordinal, axis)
            if nxt is None:
                raise LatticeError("step leaves the lattice")
            return self.bond_ordinal(site_ordinal, axis), 1, nxt
        nxt = self.shift_site(site_ordinal, axis, -1)
        if nxt is None:
            raise LatticeError("step leaves the lattice")
        return self.bond_ordinal(nxt, axis), -1, nxt

    def walk(self, start_coords, deltas_by_axis, axis_order):
        cur = self.site_ordinal(start_coords)
        start = cur
        steps = []
        for axis in axis_order:
            d = deltas_by_axis[axis]
            sgn = 1 if d > 0 else -1
            for _ in range(abs(d)):
                b, s, cur = self.step(cur, axis, sgn)
                steps.append((b, s))
        return LoopPath(tuple(steps), start, cur)

    def rectilinear_path(self, y_coords, x_coords, perm=None):
        if perm is None:
            perm = tuple(range(self.dim))
        delta = self.centered_delta(y_coords, x_coords)
        return self.walk(y_coords, delta, perm)

    def path_family(self, y_coords, x_coords):
        return [self.rectilinear_path(y_coords, x_coords, perm)
                for perm in itertools.permutations(range(self.dim))]

    def straight_path(self, x_coords, axis, length):
        deltas = [0] * self.dim
        deltas[axis] = length
        return self.walk(x_coords, deltas, (axis,))

    def toron_loop(self, x_coords, axis):
        return self.straight_path(x_coords, axis, self.n_side)

    def block_offsets(self, n=1):
        half = (self.L**n - 1) // 2
        rng = range(-half, half + 1)
        return list(itertools.product(rng, repeat=self.dim))

    def block_members(self, y_coords, n=1):
        out = []
        for off in self.block_offsets(n):
            coords = tuple(int(y) + o for y, o in zip(y_coords, off))
            out.append(self.site_ordinal(coords))
        return out

    def site_permutation(self, r):
        dest = np.empty(self.n_sites, dtype=int)
        for s in range(self.n_sites):
            dest[s] = self.site_ordinal(apply_site(r, self.site_coords(s)))
        return dest

    def bond_image(self, r, bond_ordinal):
        s, mu = self.bonds[bond_ordinal]
        y = list(apply_site(r, self.site_coords(s)))
        nu = r.perm[mu]
        sgn = r.signs[mu]
        if sgn > 0:
            return self.bond_ordinal(self.site_ordinal(y), nu), 1
        y[nu] -= 1
        return self.bond_ordinal(self.site_ordinal(y), nu), -1


def loop_coarsened(lat, n=1):
    for _ in range(n):
        lat = LoopLattice(lat.spec.coarsened())
    return lat


def _fine_center(fine, coarse, y_ord, n=1):
    return tuple(fine.L**n * c for c in coarse.site_coords(y_ord))


def loop_grad_matrix(lattice):
    inv_eta = 1.0 / lattice.spec.spacing
    rows, cols, vals = [], [], []
    for b, (s, mu) in enumerate(lattice.bonds):
        t = lattice.shift_site(s, mu)
        rows += [b, b]
        cols += [s, t]
        vals += [-inv_eta, inv_eta]
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(lattice.n_bonds, lattice.n_sites)).toarray()


def loop_ext_d_matrix(lattice):
    inv_eta = 1.0 / lattice.spec.spacing
    rows, cols, vals = [], [], []
    for p, (s, mu, nu) in enumerate(lattice.plaquettes):
        s_mu = lattice.shift_site(s, mu)
        s_nu = lattice.shift_site(s, nu)
        for bond, sign in (((s, mu), 1), ((s_mu, nu), 1),
                           ((s_nu, mu), -1), ((s, nu), -1)):
            rows.append(p)
            cols.append(lattice.bond_ordinal(*bond))
            vals.append(sign * inv_eta)
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(lattice.n_plaquettes,
                                lattice.n_bonds)).toarray()


def loop_apply_symmetry_bond(lattice, r, values):
    out = np.empty_like(values)
    for b in range(lattice.n_bonds):
        img, sgn = lattice.bond_image(r, b)
        out[img] = sgn * values[b]
    return out


def loop_scalar_average_matrix(fine, n=1):
    coarse = loop_coarsened(fine, n)
    w = float(fine.L) ** (-fine.dim * n)
    out = np.zeros((coarse.n_sites, fine.n_sites))
    for y in range(coarse.n_sites):
        for x in fine.block_members(_fine_center(fine, coarse, y, n), n):
            out[y, x] += w
    return out


def loop_bond_average_direct_matrix(fine, n):
    """The one-level bond average for n=1, the direct n-level form else."""
    coarse = loop_coarsened(fine, n)
    L, dim = fine.L, fine.dim
    w = float(L) ** (-(dim + 1) * n)
    out = np.zeros((coarse.n_bonds, fine.n_bonds))
    for cb, (y, mu) in enumerate(coarse.bonds):
        center = _fine_center(fine, coarse, y, n)
        for x in fine.block_members(center, n):
            path = fine.straight_path(fine.site_coords(x), mu, L**n)
            for b, sign in path.steps:
                out[cb, b] += w * sign
    return out


def loop_toron_average_matrix(lattice):
    w = 1.0 / lattice.n_sites
    out = np.zeros((lattice.dim, lattice.n_bonds))
    for mu in range(lattice.dim):
        for x in range(lattice.n_sites):
            loop = lattice.toron_loop(lattice.site_coords(x), mu)
            for b, sign in loop.steps:
                out[mu, b] += w * sign
    return out


def loop_path_average_build(fine, all_orders):
    coarse = loop_coarsened(fine)
    rows = []
    data = []
    for y in range(coarse.n_sites):
        center = _fine_center(fine, coarse, y)
        for off in fine.block_offsets(1):
            if all(o == 0 for o in off):
                continue
            x_coords = tuple(c + o for c, o in zip(center, off))
            rows.append((y, fine.site_ordinal(x_coords)))
            row = np.zeros(fine.n_bonds)
            if all_orders:
                fam = fine.path_family(center, x_coords)
                w = 1.0 / len(fam)
            else:
                fam = [fine.rectilinear_path(center, x_coords)]
                w = 1.0
            for path in fam:
                for b, sign in path.steps:
                    row[b] += w * sign
            data.append(row)
    return np.array(data), tuple(rows)


def loop_scalar_recovery_matrix(lattice):
    tau, tau_rows = loop_path_average_build(lattice, True)
    coarse = loop_coarsened(lattice)
    w = float(lattice.L) ** (-lattice.dim)
    out = np.zeros((lattice.n_sites, lattice.n_bonds))
    block_sum = {}
    for (y, x), row in zip(tau_rows, tau):
        block_sum.setdefault(y, np.zeros(lattice.n_bonds))
        block_sum[y] += row
    for (y, x), row in zip(tau_rows, tau):
        out[x] = -row + w * block_sum[y]
    for y in range(coarse.n_sites):
        center = lattice.site_ordinal(_fine_center(lattice, coarse, y))
        out[center] = w * block_sum[y]
    return out


def loop_hierarchical_scalar_bijection_matrix(fine, n_levels):
    rows = [loop_scalar_average_matrix(fine, n_levels)]
    for j in range(n_levels):
        lat_j = loop_coarsened(fine, j)
        qj = loop_scalar_average_matrix(fine, j) if j else np.eye(fine.n_sites)
        coarse = loop_coarsened(lat_j, 1)
        for y in range(coarse.n_sites):
            center_coords = _fine_center(lat_j, coarse, y)
            center = lat_j.site_ordinal(center_coords)
            for x in lat_j.block_members(center_coords, 1):
                if x != center:
                    rows.append((qj[x] - qj[center])[None, :])
    return np.vstack(rows)


def loop_fluctuation_split(fine):
    """(in_block, linking, central, noncentral, chi_star): the linking
    bonds leave the block of y through its +mu face, coarse bond by coarse
    bond, face site by face site."""
    coarse = loop_coarsened(fine)
    half = (fine.L - 1) // 2
    linking, central = [], []
    for y, mu in coarse.bonds:
        yf = _fine_center(fine, coarse, y)
        trans_axes = [m for m in range(fine.dim) if m != mu]
        for off in itertools.product(range(-half, half + 1),
                                     repeat=fine.dim - 1):
            face = list(yf)
            face[mu] += half
            for ax, o in zip(trans_axes, off):
                face[ax] += o
            b = fine.bond_ordinal(fine.site_ordinal(face), mu)
            linking.append(b)
            if all(o == 0 for o in off):
                central.append(b)
    linking_set = set(linking)
    in_block = tuple(b for b in range(fine.n_bonds) if b not in linking_set)
    chi = np.ones(fine.n_bonds)
    chi[central] = 0.0
    noncentral = tuple(b for b in linking if chi[b])
    return in_block, tuple(linking), tuple(central), noncentral, chi


def loop_element_points(lattice, kind):
    if kind == "site":
        return np.asarray(lattice.sites, dtype=float) * lattice.spec.spacing
    pts = np.empty((lattice.n_bonds, lattice.dim))
    for b, (s, mu) in enumerate(lattice.bonds):
        c = np.array(lattice.site_coords(s), dtype=float)
        c[mu] += 0.5
        pts[b] = c * lattice.spec.spacing
    return pts


def loop_decay_profile(matrix, row_lattice, col_lattice, floor=1e-13,
                       kind="bond"):
    period = row_lattice.n_side * row_lattice.spec.spacing
    rp = loop_element_points(row_lattice, kind)
    cp = loop_element_points(col_lattice, kind)
    diff = rp[:, None, :] - cp[None, :, :]
    diff -= period * np.round(diff / period)
    dist = np.sqrt((diff**2).sum(axis=2))
    classes = {}
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            d = round(dist[i, j], 9)
            v = abs(matrix[i, j])
            cur = classes.get(d)
            if cur is None:
                classes[d] = [v, 1]
            else:
                cur[0] = max(cur[0], v)
                cur[1] += 1
    table = sorted((d, mx, n) for d, (mx, n) in classes.items())
    xs = np.array([d for d, mx, _ in table if mx > floor])
    ys = np.array([np.log(mx) for _, mx, _ in table if mx > floor])
    if len(xs) >= 2:
        slope, _ = np.polyfit(xs, ys, 1)
        corr = float(np.corrcoef(xs, ys)[0, 1])
    else:
        slope, corr = 0.0, 0.0
    return {"table": table, "slope": float(slope), "correlation": corr}


# -- lattices under test -------------------------------------------------------

UNIT = [(2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 3, 1)]
SPECS = ([LatticeSpec(d, L, 0, M) for d, L, M in UNIT]
         + [LatticeSpec(d, L, 1, M) for d, L, M in UNIT]
         + [LatticeSpec(d, L, 0, 0, OPEN_CUBE)
            for d, L in ((2, 3), (2, 5), (3, 3))]
         + [LatticeSpec(2, 3, -1, 1), LatticeSpec(3, 3, -1, 1)])
# specs with at least one blocking level (coarse side >= 1)
BLOCKED = [s for s in SPECS if s.n_side > 1]


def _id(spec):
    return (f"{spec.boundary}-d{spec.dim}-L{spec.L}"
            f"-k{spec.scale_exp}-M{spec.size_exp}")


def _pair(spec):
    return build_lattice(spec), LoopLattice(spec)


def _levels(spec):
    """Blocking levels n with a coarse lattice of at least one site."""
    n, side = 0, spec.n_side
    while side % spec.L == 0:
        side //= spec.L
        n += 1
    return n


# -- geometry ------------------------------------------------------------------

@pytest.mark.parametrize("spec", SPECS, ids=_id)
def test_enumeration_matches_loops(spec):
    lat, ref = _pair(spec)
    assert np.array_equal(lat.sites, ref.sites)
    assert lat.sites.dtype == ref.sites.dtype
    assert list(zip(lat.bond_sites.tolist(), lat.bond_axes.tolist())) \
        == ref.bonds
    assert list(zip(lat.plaq_sites.tolist(), *lat.plaq_axes.T.tolist())) \
        == ref.plaquettes
    for s in range(ref.n_sites):
        assert lat.site_ordinal(ref.site_coords(s)) == s
        for mu in range(spec.dim):
            for steps, table in ((1, lat.next), (-1, lat.prev)):
                want = ref.shift_site(s, mu, steps)
                assert table[mu, s] == (-1 if want is None else want)
            want = ref._bond_lookup.get((s, mu), -1)
            assert lat.bond_index[s, mu] == want


@pytest.mark.parametrize("spec", SPECS, ids=_id)
def test_site_ordinal_wraps_or_rejects_like_loops(spec):
    lat, ref = _pair(spec)
    far = (spec.n_side,) + (0,) * (spec.dim - 1)
    if spec.boundary == TORUS:
        assert lat.site_ordinal(far) == ref.site_ordinal(far)
    else:
        with pytest.raises(LatticeError):
            lat.site_ordinal(far)
    for wrong_length in ((0,) * (spec.dim - 1), (0,) * (spec.dim + 1)):
        with pytest.raises(LatticeError):
            ref.site_ordinal(wrong_length)
        with pytest.raises(LatticeError):
            lat.site_ordinal(wrong_length)


@pytest.mark.parametrize("spec", SPECS, ids=_id)
def test_symmetries_match_loops(spec):
    lat, ref = _pair(spec)
    syms = lat.symmetries()
    assert len(syms) == (8 if spec.dim == 2 else 48)
    values = np.random.default_rng(0).standard_normal(lat.n_bonds)
    for r in syms:
        assert np.array_equal(lat.site_permutation(r),
                              ref.site_permutation(r))
        want = [ref.bond_image(r, b) for b in range(ref.n_bonds)]
        dest, sign = lat.bond_permutation(r)
        assert list(zip(dest.tolist(), sign.tolist())) == want
        got = apply_symmetry(r, lat, BOND, values)
        assert np.array_equal(got, loop_apply_symmetry_bond(ref, r, values))


@pytest.mark.parametrize("dim,boundary", [(2, TORUS), (3, TORUS),
                                          (2, OPEN_CUBE), (3, OPEN_CUBE)])
def test_counts_match_spec_closed_forms(dim, boundary):
    for L in (3, 5):
        for scale, size in ((-1, 1), (0, 0), (0, 1), (1, 1)):
            if dim == 3 and L == 5 and scale + size > 0:
                continue                    # keep the lattices small
            spec = LatticeSpec(dim, L, scale, size, boundary)
            lat = Lattice(spec)
            assert (lat.n_sites, lat.n_bonds, lat.n_plaquettes) \
                == (spec.n_sites, spec.n_bonds, spec.n_plaquettes)


# -- operators -----------------------------------------------------------------

@pytest.mark.parametrize("spec", SPECS, ids=_id)
def test_calculus_matrices_match_loops(spec):
    lat, ref = _pair(spec)
    # one format at every size: CSR, equal entry for entry to the loops
    for matrix, loop in ((grad_matrix(lat), loop_grad_matrix(ref)),
                         (ext_d_matrix(lat), loop_ext_d_matrix(ref))):
        assert isinstance(matrix, CSR)
        assert np.array_equal(matrix.toarray(), loop)


def _assert_canonical_csr(matrix):
    assert isinstance(matrix, CSR)
    rows, cols, _ = matrix.entries()
    # row by row, the columns ascend and none repeats
    assert np.all(np.diff(rows * matrix.shape[1] + cols) > 0)


@pytest.mark.parametrize("spec", BLOCKED, ids=_id)
def test_averaging_matrices_match_loops(spec):
    lat, ref = _pair(spec)
    n_levels = _levels(spec)
    # one format for every averaging builder: canonical CSR, equal entry
    # for entry to the loops
    pairs = [(av.bond_average_matrix(lat, 1),
              loop_bond_average_direct_matrix(ref, 1)),
             (av.bond_average_matrix(lat, 0), np.eye(lat.n_bonds)),
             (av.scalar_recovery_matrix(lat),
              loop_scalar_recovery_matrix(ref)),
             (av.hierarchical_scalar_bijection_matrix(lat, n_levels),
              loop_hierarchical_scalar_bijection_matrix(ref, n_levels))]
    for n in range(n_levels + 1):
        pairs.append((av.scalar_average_matrix(lat, n),
                      loop_scalar_average_matrix(ref, n)))
        if n:
            pairs.append((av.bond_average_direct_matrix(lat, n),
                          loop_bond_average_direct_matrix(ref, n)))
    for all_orders, build in ((True, av.path_average_matrix),
                              (False, av.tree_path_matrix)):
        matrix, rows = loop_path_average_build(ref, all_orders)
        tau = build(lat)
        assert tau.rows.tolist() == list(map(list, rows))
        pairs.append((tau.matrix, matrix))
    if spec.boundary == TORUS:
        pairs.append((av.toron_average_matrix(lat),
                      loop_toron_average_matrix(ref)))
    for matrix, loop in pairs:
        _assert_canonical_csr(matrix)
        assert np.array_equal(matrix.toarray(), loop)
    # the sparse products of these
    _assert_canonical_csr(av.bond_average_matrix(lat, n_levels))
    _assert_canonical_csr(av.axial_constraint_stack(lat, n_levels).matrix)
    if spec.boundary == TORUS:
        _assert_canonical_csr(av.toron_average_full_matrix(lat, n_levels))


@pytest.mark.parametrize("spec", SPECS, ids=_id)
def test_builders_match_the_scipy_construction(spec, scipy_checked):
    # every CSR builder, and every sparse product, stack and gather the
    # composite ones take, equals the scipy.sparse construction it replaced
    clear_caches()
    lat = build_lattice(spec)
    for kind in (BOND, PLAQUETTE):
        codiff(kind, lat)
    laplacian_matrix(lat)
    curl_energy_form(lat)
    n_levels = _levels(spec)
    for n in range(n_levels + 1):
        av.scalar_average_matrix(lat, n)
        av.bond_average_matrix(lat, n)
        av.axial_constraint_stack(lat, n)
    if n_levels:
        av.bond_average_direct_matrix(lat, n_levels)
        av.path_average_matrix(lat)
        av.tree_path_matrix(lat)
        av.scalar_recovery_matrix(lat)
        av.hierarchical_scalar_bijection_matrix(lat, n_levels)
        if spec.boundary == TORUS:
            av.toron_average_full_matrix(lat, n_levels)
            av.fluctuation_basis(lat)
    clear_caches()
    assert scipy_checked["from_triplets"] and scipy_checked["__matmul__"]


@pytest.mark.parametrize("spec", BLOCKED, ids=_id)
def test_axial_stack_level_zero_is_an_unaliased_copy(spec):
    lat = build_lattice(spec)
    stack = av.axial_constraint_stack(lat, _levels(spec))
    # every level equals the path averages times the j-fold bond blocking,
    # level 0 included, where that blocking is the identity
    bounds = np.cumsum((0,) + stack.rows_per_level)
    assert bounds[-1] == stack.matrix.shape[0]
    for j, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        tau = av.path_average_matrix(av.coarsened(lat, j)).matrix
        assert np.array_equal(stack.matrix[start:stop].toarray(),
                              (tau @ av.bond_average_matrix(lat, j)).toarray())
    # the stack's arrays are its own, and neither it nor the cached path
    # averages can be written
    cached = av.path_average_matrix(lat).matrix
    assert not np.shares_memory(stack.matrix.data, cached.data)
    for m in (stack.matrix, cached):
        for a in (m.data, m.indices, m.indptr):
            with pytest.raises(ValueError):
                a[...] = 7


@pytest.mark.parametrize("spec", BLOCKED, ids=_id)
def test_fluctuation_split_matches_loops(spec):
    lat, ref = _pair(spec)
    split = av.fluctuation_split(lat)
    in_block, linking, central, noncentral, chi = loop_fluctuation_split(ref)
    assert split.in_block.tolist() == list(in_block)
    assert split.linking.tolist() == list(linking)
    assert split.central.tolist() == list(central)
    assert split.noncentral.tolist() == list(noncentral)
    assert np.array_equal(split.chi_star, chi)


def test_toron_average_of_one_site_torus_matches_loops():
    lat, ref = _pair(LatticeSpec(2, 3, -1, 1))
    assert np.array_equal(av.toron_average_matrix(lat).toarray(),
                          loop_toron_average_matrix(ref))


@pytest.mark.parametrize("spec", SPECS, ids=_id)
def test_element_points_match_loops(spec):
    lat, ref = _pair(spec)
    for kind in ("site", "bond"):
        assert np.array_equal(_element_points(lat, kind),
                              loop_element_points(ref, kind))


@pytest.mark.parametrize("dim,L,levels", [(2, 3, 2), (2, 5, 1), (3, 3, 1)])
def test_decay_profile_matches_loops(dim, L, levels):
    # the gauge-ops instances: the minimizer kernel of the decay suite and
    # the massive site Green's function
    c = get_context(dim, L, levels, 1)
    cases = [(c.axial_minimizer, c.fine, c.unit, "bond")]
    unit = build_lattice(LatticeSpec(dim, L, 0, 1))
    g = grad_matrix(unit).toarray()
    lap = g.T @ g
    cases.append((np.linalg.inv(lap + np.eye(unit.n_sites)), unit, unit,
                   "site"))
    for matrix, rows, cols, kind in cases:
        got = decay_profile(matrix, rows, cols, kind=kind)
        want = loop_decay_profile(matrix, LoopLattice(rows.spec),
                                  LoopLattice(cols.spec), kind=kind)
        assert got["table"] == want["table"]
        assert got["slope"] == want["slope"]
        assert got["correlation"] == want["correlation"]
