"""Finite lattice geometry: sites, bonds, plaquettes, blocks, paths, trees.

Lattices are either a torus or an open cube, always with an odd block side L
and sites indexed by integer coordinates in units of the lattice spacing.
Both boundary types share a fundamental domain centered on the origin, so an
open cube and a torus of the same side have identical site coordinates.

Canonical ordinals: sites are ordered lexicographically by coordinates,
bonds by (site ordinal, axis), plaquettes by (site ordinal, axis pair).
Every matrix built elsewhere in this package uses this ordering.

Every cache of the package is an `instance_cache`, keyed directly or through
a lattice on one instance's tower of blocked lattices; `clear_caches` drops
them all when a run moves to the next instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TORUS = "torus"
OPEN_CUBE = "open"
CACHE_SIZE = 64    # above the keys any cache meets on one default instance
_caches = []


def instance_cache(fn):
    """lru_cache(maxsize=CACHE_SIZE), emptied by clear_caches."""
    _caches.append(lru_cache(maxsize=CACHE_SIZE)(fn))
    return _caches[-1]


def clear_caches():
    """Drop everything cached for the instance a run has moved past."""
    for cached in _caches:
        cached.cache_clear()


class LatticeError(ValueError):
    """Invalid lattice parameters or an operation unsupported on this boundary."""


@dataclass(frozen=True)
class LatticeSpec:
    """Descriptor of a finite lattice.

    dim       -- spatial dimension, 2 or 3
    L         -- odd block side >= 3
    scale_exp -- k, spacing is L**-k (may be negative for coarsened lattices)
    size_exp  -- M, so a torus has L**(M+k) sites per side and an open cube
                 has L**(M+k+1) sites per side (M=k=0 gives the basic L-cube)
    boundary  -- "torus" or "open"
    """

    dim: int
    L: int
    scale_exp: int = 0
    size_exp: int = 0
    boundary: str = TORUS

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise LatticeError(f"dim must be 2 or 3, got {self.dim}")
        if self.L < 3 or self.L % 2 == 0:
            raise LatticeError(f"L must be an odd integer >= 3, got {self.L}")
        if self.boundary not in (TORUS, OPEN_CUBE):
            raise LatticeError(f"unknown boundary {self.boundary!r}")
        if self.size_exp < 0:
            raise LatticeError("size_exp must be >= 0")

    @property
    def spacing(self) -> float:
        return float(self.L) ** (-self.scale_exp)

    @property
    def n_side(self) -> int:
        exp = self.size_exp + self.scale_exp
        if self.boundary == OPEN_CUBE:
            exp += 1
        if exp < 0:
            raise LatticeError("lattice has fewer than one site per side")
        return self.L**exp

    # closed-form element counts, known before anything is built

    @property
    def n_sites(self) -> int:
        return self.n_side**self.dim

    @property
    def n_bonds(self) -> int:
        n, dim = self.n_side, self.dim
        if self.boundary == TORUS:
            return dim * n**dim
        return dim * (n - 1) * n ** (dim - 1)

    @property
    def n_plaquettes(self) -> int:
        n, dim = self.n_side, self.dim
        pairs = dim * (dim - 1) // 2
        if self.boundary == TORUS:
            return pairs * n**dim
        return pairs * (n - 1) ** 2 * n ** (dim - 2)

    def coarsened(self) -> "LatticeSpec":
        """Spec of the lattice one blocking level up (spacing multiplied by L)."""
        return LatticeSpec(self.dim, self.L, self.scale_exp - 1, self.size_exp,
                           self.boundary)

    def rescaled(self, n: int) -> "LatticeSpec":
        """Relabel spacing by L**-n at fixed site count (torus T^0_M -> T^-n_{M-n})."""
        return LatticeSpec(self.dim, self.L, self.scale_exp + n, self.size_exp - n,
                           self.boundary)


@dataclass(frozen=True)
class Path:
    """An oriented lattice path: a list of (bond ordinal, +-1) steps."""

    steps: tuple
    start: int
    end: int

    def __len__(self):
        return len(self.steps)

    @property
    def closed(self) -> bool:
        return self.start == self.end

    def bond_multiset(self):
        return tuple(sorted(self.steps))


@dataclass(frozen=True)
class LatticeSymmetry:
    """Signed axis permutation fixing the origin: r e_mu = signs[mu] e_perm[mu]."""

    perm: tuple
    signs: tuple

    def matrix(self) -> np.ndarray:
        dim = len(self.perm)
        m = np.zeros((dim, dim), dtype=int)
        for mu in range(dim):
            m[self.perm[mu], mu] = self.signs[mu]
        return m

    def apply_site(self, coords) -> tuple:
        out = [0] * len(self.perm)
        for mu, c in enumerate(coords):
            out[self.perm[mu]] = self.signs[mu] * c
        return tuple(out)

    def inverse(self) -> "LatticeSymmetry":
        dim = len(self.perm)
        inv_perm = [0] * dim
        inv_signs = [0] * dim
        for mu in range(dim):
            inv_perm[self.perm[mu]] = mu
            inv_signs[self.perm[mu]] = self.signs[mu]
        return LatticeSymmetry(tuple(inv_perm), tuple(inv_signs))


class Lattice:
    """Concrete lattice with enumerated sites, bonds and plaquettes.

    The geometry is held in index tables built by whole-array arithmetic:

    next[axis, s], prev[axis, s] -- the site one step from s along +-axis,
                                    -1 where an open-cube step leaves it;
    bond_index[s, axis]          -- ordinal of the bond (s, axis), or -1;
    bond_sites, bond_axes        -- the bonds as arrays (site, axis);
    plaq_sites, plaq_axes        -- the plaquettes as arrays (site, (mu, nu)).

    `bonds` and `plaquettes` list the same elements as tuples.
    """

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        self.dim = dim = spec.dim
        self.L = spec.L
        self.n_side = n = spec.n_side
        self.half = (n - 1) // 2
        self._radix = n ** np.arange(dim - 1, -1, -1)
        self.sites = np.indices((n,) * dim).reshape(dim, -1).T - self.half

        grid = np.arange(n**dim).reshape((n,) * dim)
        self.next = np.stack([np.roll(grid, -1, mu).ravel()
                              for mu in range(dim)])
        self.prev = np.stack([np.roll(grid, 1, mu).ravel()
                              for mu in range(dim)])
        if not self.is_torus:
            self.next[self.sites.T == self.half] = -1
            self.prev[self.sites.T == -self.half] = -1

        has_bond = self.next.T >= 0
        self.bond_sites, self.bond_axes = np.nonzero(has_bond)
        self.bond_index = np.full(has_bond.shape, -1)
        self.bond_index[has_bond] = np.arange(len(self.bond_sites))
        self.bonds = list(zip(self.bond_sites.tolist(),
                              self.bond_axes.tolist()))

        pairs = np.array(list(itertools.combinations(range(dim), 2)))
        has_plaq = has_bond[:, pairs[:, 0]] & has_bond[:, pairs[:, 1]]
        self.plaq_sites, pair = np.nonzero(has_plaq)
        self.plaq_axes = pairs[pair]
        self.plaquettes = list(zip(self.plaq_sites.tolist(),
                                   *self.plaq_axes.T.tolist()))

    # -- basic counts -------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    @property
    def n_plaquettes(self) -> int:
        return len(self.plaquettes)

    @property
    def spacing(self) -> float:
        return self.spec.spacing

    @property
    def is_torus(self) -> bool:
        return self.spec.boundary == TORUS

    # -- coordinates --------------------------------------------------------

    def site_ordinals(self, coords) -> np.ndarray:
        """Ordinals of sites given by coordinates along the last axis.

        Radix arithmetic sum_i (c_i + half) n**(dim-1-i), after wrapping
        into the fundamental domain on a torus.
        """
        c = np.asarray(coords, dtype=int) + self.half
        if c.ndim == 0 or c.shape[-1] != self.dim:
            raise LatticeError(f"site {coords} not on lattice")
        if self.is_torus:
            c %= self.n_side
        else:
            off = ((c < 0) | (c >= self.n_side)).any(axis=-1)
            if off.any():
                bad = c.reshape(-1, self.dim)[off.ravel()][0] - self.half
                raise LatticeError(f"site {tuple(bad.tolist())} not on lattice")
        return c @ self._radix

    def site_ordinal(self, coords) -> int:
        return int(self.site_ordinals(coords))

    def site_coords(self, ordinal: int) -> tuple:
        return tuple(self.sites[ordinal])

    def shift_site(self, ordinal: int, axis: int, steps: int = 1):
        """Ordinal of the site displaced by steps*e_axis, or None if outside."""
        table = self.next if steps > 0 else self.prev
        for _ in range(abs(steps)):
            ordinal = table[axis, ordinal]
            if ordinal < 0:
                return None
        return int(ordinal)

    def centered_delta(self, y_coords, x_coords):
        """Displacement x - y, wrapped into the centered window on a torus."""
        d = [int(x) - int(y) for y, x in zip(y_coords, x_coords)]
        if self.is_torus:
            n = self.n_side
            d = [(c + n // 2) % n - n // 2 for c in d]
        return tuple(d)

    # -- bonds --------------------------------------------------------------

    def bond_ordinal(self, site_ordinal: int, axis: int) -> int:
        if not (0 <= site_ordinal < self.n_sites and 0 <= axis < self.dim
                and self.bond_index[site_ordinal, axis] >= 0):
            raise LatticeError("no such bond")
        return int(self.bond_index[site_ordinal, axis])

    def step(self, site_ordinal: int, axis: int, direction: int):
        """One oriented step from a site; returns (bond ordinal, sign, new site)."""
        if direction > 0:
            nxt = self.shift_site(site_ordinal, axis)
            if nxt is None:
                raise LatticeError("step leaves the lattice")
            return self.bond_ordinal(site_ordinal, axis), 1, nxt
        nxt = self.shift_site(site_ordinal, axis, -1)
        if nxt is None:
            raise LatticeError("step leaves the lattice")
        return self.bond_ordinal(nxt, axis), -1, nxt

    def bonds_at(self, site_ordinal: int):
        """All canonical bonds incident to a site, with incidence sign."""
        out = []
        for mu in range(self.dim):
            if self.bond_index[site_ordinal, mu] >= 0:
                out.append((int(self.bond_index[site_ordinal, mu]), 1))
            prev = self.prev[mu, site_ordinal]
            if prev >= 0:
                out.append((int(self.bond_index[prev, mu]), -1))
        return out

    # -- paths --------------------------------------------------------------

    def walk(self, start_coords, deltas_by_axis, axis_order) -> Path:
        """Move each coordinate to its target in the given axis order."""
        start = self.site_ordinal(start_coords)
        bonds, signs, end = self.walk_bonds([start], [deltas_by_axis],
                                            axis_order)
        taken = signs[0] != 0
        steps = zip(bonds[0, taken].tolist(), signs[0, taken].tolist())
        return Path(tuple(steps), start, int(end[0]))

    def walk_bonds(self, starts, deltas, axis_order):
        """`walk` for many paths at once, by whole-array table lookups.

        Path i moves site starts[i] by deltas[i], axis by axis in axis_order.
        Returns (bonds, signs, ends): bonds and signs have shape
        (len(starts), len(axis_order) * reach), reach = max |delta|, where
        step t along the j-th axis of the order is slot j * reach + t and the
        slots a path does not use hold bond -1 and sign 0; ends are the
        sites the paths end at.
        """
        cur = np.array(starts)
        deltas = np.asarray(deltas)
        reach = int(np.abs(deltas).max(initial=0))
        bonds = np.full((len(cur), len(axis_order) * reach), -1)
        signs = np.zeros_like(bonds)
        for j, axis in enumerate(axis_order):
            for t in range(reach):
                slot = j * reach + t
                fwd = deltas[:, axis] > t
                back = deltas[:, axis] < -t
                bonds[fwd, slot] = self.bond_index[cur[fwd], axis]
                cur[fwd] = self.next[axis, cur[fwd]]
                cur[back] = self.prev[axis, cur[back]]
                if (cur < 0).any():
                    raise LatticeError("step leaves the lattice")
                bonds[back, slot] = self.bond_index[cur[back], axis]
                signs[fwd, slot] = 1
                signs[back, slot] = -1
        return bonds, signs, cur

    def rectilinear_path(self, y_coords, x_coords, perm=None) -> Path:
        """Coordinate-ordered path from y to x (identity order by default).

        On a torus the displacement is the minimal centered representative,
        so paths within blocks never wrap ambiguously.
        """
        if perm is None:
            perm = tuple(range(self.dim))
        delta = self.centered_delta(y_coords, x_coords)
        return self.walk(y_coords, delta, perm)

    def path_family(self, y_coords, x_coords):
        """All dim! coordinate-ordered paths from y to x, with multiplicity."""
        return [self.rectilinear_path(y_coords, x_coords, perm)
                for perm in itertools.permutations(range(self.dim))]

    def straight_path(self, x_coords, axis, length) -> Path:
        """Straight path of the given number of +axis steps starting at x."""
        deltas = [0] * self.dim
        deltas[axis] = length
        return self.walk(x_coords, deltas, (axis,))

    def toron_loop(self, x_coords, axis) -> Path:
        """Closed path winding once around the torus through x along an axis."""
        if not self.is_torus:
            raise LatticeError("toron loops require a torus")
        return self.straight_path(x_coords, axis, self.n_side)

    # -- trees --------------------------------------------------------------

    def axial_tree(self):
        """Bond ordinals of the comb tree spanned by the origin paths.

        The tree is the union of the identity-order rectilinear paths from
        the origin to every other site.  On a torus the same (non-wrapping)
        tree is used; it cannot include the wrap bonds.
        """
        # Plain (unwrapped) deltas keep the tree inside the fundamental
        # domain on a torus as well.
        origin = self.site_ordinal((0,) * self.dim)
        bonds, signs, _ = self.walk_bonds(
            np.full(self.n_sites, origin), self.sites, tuple(range(self.dim)))
        return set(bonds[signs != 0].tolist())

    # -- blocks -------------------------------------------------------------

    def block_offsets(self, n: int = 1) -> np.ndarray:
        """Offsets of an L^n-cube from its center, lexicographic, one per row."""
        side = self.L**n
        return np.indices((side,) * self.dim).reshape(self.dim, -1).T \
            - (side - 1) // 2

    def block_members(self, y_coords, n: int = 1):
        """Ordinals of the L^n-cube of fine sites centered on a coarse center y."""
        for c in y_coords:
            if int(c) % self.L**n != 0:
                raise LatticeError(f"{tuple(y_coords)} is not a level-{n} center")
        y = np.asarray(y_coords, dtype=int)
        return self.site_ordinals(y + self.block_offsets(n)).tolist()

    def boundary_bonds(self, coarse: "Lattice", y_ord: int, axis: int):
        """Fine bonds leaving the block of coarse site y through its +axis face.

        Returns (list of bond ordinals, central bond ordinal).  The central
        bond starts at the face center; it is unique because L is odd.
        """
        half = (self.L - 1) // 2
        yf = [self.L * c for c in coarse.site_coords(y_ord)]
        bonds = []
        central = None
        trans_axes = [m for m in range(self.dim) if m != axis]
        for off in itertools.product(range(-half, half + 1),
                                     repeat=self.dim - 1):
            face = list(yf)
            face[axis] += half
            for ax, o in zip(trans_axes, off):
                face[ax] += o
            b = self.bond_ordinal(self.site_ordinal(face), axis)
            bonds.append(b)
            if all(o == 0 for o in off):
                central = b
        return bonds, central

    def linking_bonds(self, coarse: "Lattice", y_ord: int, yp_ord: int):
        """Fine bonds joining the blocks of adjacent coarse sites y, y'.

        Returns (list of bond ordinals, central bond ordinal); the bonds are
        oriented from B(y) to B(y') along the separating axis when y' = y +
        e_axis, i.e. in canonical orientation when the displacement is +1.
        """
        y = coarse.site_coords(y_ord)
        yp = coarse.site_coords(yp_ord)
        delta = coarse.centered_delta(y, yp)
        if sorted(abs(d) for d in delta) != [0] * (self.dim - 1) + [1]:
            raise LatticeError("coarse sites are not nearest neighbors")
        axis = max(range(self.dim), key=lambda m: abs(delta[m]))
        if delta[axis] > 0:
            return self.boundary_bonds(coarse, y_ord, axis)
        return self.boundary_bonds(coarse, yp_ord, axis)

    # -- symmetries ---------------------------------------------------------

    def symmetries(self):
        """All signed axis permutations (they fix the origin and the lattice)."""
        out = []
        for perm in itertools.permutations(range(self.dim)):
            for signs in itertools.product((1, -1), repeat=self.dim):
                out.append(LatticeSymmetry(perm, signs))
        return out

    def site_permutation(self, r: LatticeSymmetry) -> np.ndarray:
        """dest[i] = ordinal of r(site i)."""
        image = np.empty_like(self.sites)
        image[:, list(r.perm)] = self.sites * np.array(r.signs)
        return self.site_ordinals(image)

    def bond_permutation(self, r: LatticeSymmetry):
        """Images of all canonical bonds under r: (ordinals, signs) arrays."""
        perm, signs = np.array(r.perm), np.array(r.signs)
        start = self.site_permutation(r)[self.bond_sites]
        nu = perm[self.bond_axes]
        sign = signs[self.bond_axes]
        # a reversed bond is the canonical bond one step back along nu
        start = np.where(sign > 0, start, self.prev[nu, start])
        return self.bond_index[start, nu], sign

    def bond_image(self, r: LatticeSymmetry, bond_ordinal: int):
        """Image of a canonical bond under r: (canonical ordinal, sign)."""
        dest, sign = self.bond_permutation(r)
        return int(dest[bond_ordinal]), int(sign[bond_ordinal])

    def __repr__(self):
        return (f"Lattice(dim={self.dim}, L={self.L}, "
                f"scale_exp={self.spec.scale_exp}, size_exp={self.spec.size_exp}, "
                f"{self.spec.boundary}, {self.n_sites} sites)")


@instance_cache
def build_lattice(spec: LatticeSpec) -> Lattice:
    """The lattice of a spec, built once per instance."""
    return Lattice(spec)


def open_cube(dim: int, L: int) -> Lattice:
    """The basic open cube B(0) with L sites per side."""
    return build_lattice(LatticeSpec(dim, L, 0, 0, OPEN_CUBE))


def unit_torus(dim: int, L: int, levels: int) -> Lattice:
    """Unit-spacing torus with L**levels sites per side."""
    return build_lattice(LatticeSpec(dim, L, 0, levels, TORUS))


def fine_torus(dim: int, L: int, scale: int, levels: int) -> Lattice:
    """Torus with spacing L**-scale and L**(levels+scale) sites per side."""
    return build_lattice(LatticeSpec(dim, L, scale, levels, TORUS))
