"""Finite lattice geometry: sites, bonds, plaquettes, blocks, paths, trees.

Lattices are either a torus or an open cube, always with an odd block side L
and sites indexed by integer coordinates in units of the lattice spacing.
Both boundary types share a fundamental domain centered on the origin, so an
open cube and a torus of the same side have identical site coordinates.

Canonical ordinals: sites are ordered lexicographically by coordinates,
bonds by (site ordinal, axis), plaquettes by (site ordinal, axis pair).
Every matrix built elsewhere in this package uses this ordering.

Every cache of the package is an `instance_cache`, keyed directly or through
a lattice or a level context on one instance's tower of blocked lattices;
`clear_caches` drops them all when a run moves to the next instance.  A
`shape_cache` is one keyed on the spacing-free shape of its lattice (dim,
L, sites per side, boundary), for builders whose output does not depend on
the spacing.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

TORUS = "torus"
OPEN_CUBE = "open"
CACHE_SIZE = 64    # above the keys any cache meets on one default instance
_caches = []


def instance_cache(fn, key=None):
    """lru_cache(maxsize=CACHE_SIZE) of fn on its bound arguments, defaults
    included, so f(), f(d) and f(x=d) share one entry; key, if given, maps
    them to the arguments fn is called with and keyed on.  An ndarray
    value, or each of a tuple value, is stored read-only.  Only a call with
    keywords is bound by the signature; a positional one is padded from
    the defaults, which costs less.  Emptied by clear_caches."""
    @lru_cache(maxsize=CACHE_SIZE)
    def cached(*args, **kwargs):
        value = fn(*args, **kwargs)
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        return value
    signature = inspect.signature(fn)
    n_args, defaults = fn.__code__.co_argcount, fn.__defaults__ or ()

    @wraps(fn)
    def lookup(*args, **kwargs):
        if kwargs:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            args, kwargs = bound.args, bound.kwargs
        elif 0 < n_args - len(args) <= len(defaults):
            args += defaults[len(args) - n_args:]
        return cached(*(key(*args) if key else args), **kwargs)
    lookup.cache_info, lookup.cache_clear = (cached.cache_info,
                                             cached.cache_clear)
    _caches.append(lookup)
    return lookup


def shape_cache(build):
    """An instance_cache of build(lattice, *args) keyed on the spacing-free
    shape of the lattice: build runs on the unit-spacing lattice with the
    same dim, L, sites per side and boundary, so every spacing of one shape
    shares one value."""
    return instance_cache(build, lambda lattice, *args: (build_lattice(
        lattice.spec.rescaled(-lattice.spec.scale_exp)),) + args)


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
class LatticeSymmetry:
    """Signed axis permutation fixing the origin: r e_mu = signs[mu] e_perm[mu]."""

    perm: tuple
    signs: tuple

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

    Paths, blocks and symmetries are computed from these tables, which are
    the only representation of the geometry.
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

        pairs = np.array(list(itertools.combinations(range(dim), 2)))
        has_plaq = has_bond[:, pairs[:, 0]] & has_bond[:, pairs[:, 1]]
        self.plaq_sites, pair = np.nonzero(has_plaq)
        self.plaq_axes = pairs[pair]

    # -- basic counts -------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def n_bonds(self) -> int:
        return len(self.bond_sites)

    @property
    def n_plaquettes(self) -> int:
        return len(self.plaq_sites)

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

    # -- paths --------------------------------------------------------------

    def walk_bonds(self, starts, deltas, axis_order):
        """Walk many paths at once, by whole-array table lookups.

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
