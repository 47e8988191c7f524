import importlib
import itertools
import pkgutil

import numpy as np
import pytest

import caxial
from caxial import lattice
from caxial.lattice import (LatticeSpec, LatticeError, build_lattice,
                            open_cube, unit_torus, OPEN_CUBE)


def test_open_cube_counts_d2_l5():
    lat = open_cube(2, 5)
    assert lat.n_sites == 25
    assert lat.n_bonds == 40
    assert lat.n_plaquettes == 16


def test_torus_counts_d3():
    lat = unit_torus(3, 3, 1)
    assert lat.n_sites == 27
    assert lat.n_bonds == 81
    assert lat.n_plaquettes == 81


def test_even_l_rejected():
    with pytest.raises(LatticeError):
        LatticeSpec(2, 4)


def test_bad_dim_rejected():
    with pytest.raises(LatticeError):
        LatticeSpec(4, 3)


@pytest.mark.parametrize("dim,L,M", [(2, 3, 1), (2, 3, 2), (3, 3, 1)])
def test_torus_euler_counts(dim, L, M):
    lat = unit_torus(dim, L, M)
    assert lat.n_bonds == dim * lat.n_sites
    assert lat.n_plaquettes == dim * (dim - 1) // 2 * lat.n_sites


def test_single_site_torus():
    # side-1 torus: one site, dim self-loop bonds, degenerate plaquettes
    lat = build_lattice(LatticeSpec(2, 3, -1, 1))
    assert lat.n_sites == 1
    assert lat.n_bonds == 2
    assert lat.shift_site(0, 0) == 0


def test_canonical_ordinals_lexicographic():
    lat = open_cube(2, 3)
    coords = [tuple(c) for c in lat.sites]
    assert coords == sorted(coords)
    assert coords[0] == (-1, -1)
    assert lat.bonds == sorted(lat.bonds)


def test_block_members():
    lat = unit_torus(2, 3, 1)
    members = lat.block_members((0, 0), 1)
    got = sorted(tuple(lat.site_coords(m)) for m in members)
    assert got == sorted(itertools.product((-1, 0, 1), repeat=2))
    assert lat.block_members((0, 0), 0) == [lat.site_ordinal((0, 0))]


def test_block_members_partition():
    fine = unit_torus(2, 3, 2)
    coarse = build_lattice(fine.spec.coarsened())
    seen = []
    for y in range(coarse.n_sites):
        yf = tuple(3 * c for c in coarse.site_coords(y))
        seen.extend(fine.block_members(yf, 1))
    assert sorted(seen) == list(range(fine.n_sites))


def test_block_members_bad_center():
    lat = unit_torus(2, 3, 1)
    with pytest.raises(LatticeError):
        lat.block_members((1, 0), 1)


def test_rectilinear_path_identity_order():
    lat = open_cube(3, 5)
    path = lat.rectilinear_path((0, 0, 0), (2, 1, -1))
    assert len(path) == 4
    # identity order: x1 to its final value first, then x2, then x3
    visited = [(0, 0, 0)]
    cur = lat.site_ordinal((0, 0, 0))
    for bond, sign in path.steps:
        s, mu = lat.bonds[bond]
        cur = lat.shift_site(s if sign > 0 else lat.shift_site(s, mu), mu,
                             1 if sign > 0 else -1)
        visited.append(lat.site_coords(cur))
    assert (2, 0, 0) in visited and (2, 1, 0) in visited
    assert visited[-1] == (2, 1, -1)


def test_rectilinear_path_empty_and_permuted():
    lat = open_cube(2, 5)
    assert len(lat.rectilinear_path((1, 1), (1, 1))) == 0
    path = lat.rectilinear_path((0, 0), (1, 1), perm=(1, 0))
    s0, mu0 = lat.bonds[path.steps[0][0]]
    assert mu0 == 1  # axis 2 moved first


def test_path_family_multiset():
    lat = open_cube(3, 3)
    fam = lat.path_family((0, 0, 0), (1, 1, 1))
    assert len(fam) == 6
    fam2 = lat.path_family((0, 0, 0), (1, 0, 0))
    assert len(fam2) == 6
    assert len({p.bond_multiset() for p in fam2}) == 1  # degenerate multiset


def test_path_family_d2_distinct():
    lat = open_cube(2, 3)
    fam = lat.path_family((0, 0), (1, 1))
    assert len(fam) == 2
    assert len({p.bond_multiset() for p in fam}) == 2


def test_toron_loop():
    lat = unit_torus(2, 3, 1)
    loop = lat.toron_loop((0, 0), 0)
    assert len(loop) == 3
    assert loop.closed
    with pytest.raises(LatticeError):
        open_cube(2, 3).toron_loop((0, 0), 0)


def test_toron_loops_disjoint():
    lat = unit_torus(3, 3, 1)
    l1 = {b for b, _ in lat.toron_loop((0, 0, 0), 1).steps}
    l2 = {b for b, _ in lat.toron_loop((1, 0, 0), 1).steps}
    assert not (l1 & l2)


def test_axial_tree_comb_d2_l5():
    lat = open_cube(2, 5)
    tree = lat.axial_tree()
    assert len(tree) == 24 == lat.n_sites - 1
    # the comb: the x1-axis row plus all vertical lines
    expected = set()
    for x1 in range(-2, 2):
        expected.add(lat.bond_ordinal(lat.site_ordinal((x1, 0)), 0))
    for x1 in range(-2, 3):
        for x2 in range(-2, 2):
            expected.add(lat.bond_ordinal(lat.site_ordinal((x1, x2)), 1))
    assert tree == expected


def test_axial_tree_d3_l3():
    lat = open_cube(3, 3)
    tree = lat.axial_tree()
    assert len(tree) == 26 == lat.n_sites - 1


def test_axial_tree_spans_and_acyclic():
    lat = open_cube(2, 3)
    tree = lat.axial_tree()
    # |T| = sites - 1 and T connected => spanning tree
    assert len(tree) == lat.n_sites - 1
    reached = {lat.site_ordinal((0, 0))}
    frontier = [lat.site_ordinal((0, 0))]
    adj = {b: lat.bonds[b] for b in tree}
    while frontier:
        s = frontier.pop()
        for b, (base, mu) in adj.items():
            ends = (base, lat.shift_site(base, mu))
            if s in ends:
                other = ends[1] if s == ends[0] else ends[0]
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
    assert len(reached) == lat.n_sites


@pytest.mark.parametrize("dim,L,nlink", [(2, 3, 3), (3, 3, 9)])
def test_linking_bonds(dim, L, nlink):
    fine = unit_torus(dim, L, 2)
    coarse = build_lattice(fine.spec.coarsened())
    y = coarse.site_ordinal((0,) * dim)
    yp = coarse.site_ordinal((1,) + (0,) * (dim - 1))
    bonds, central = fine.linking_bonds(coarse, y, yp)
    assert len(bonds) == nlink
    assert central in bonds
    s, mu = fine.bonds[central]
    assert fine.site_coords(s) == ((L - 1) // 2,) + (0,) * (dim - 1)
    assert mu == 0


def test_linking_bonds_partition():
    fine = unit_torus(2, 3, 2)
    coarse = build_lattice(fine.spec.coarsened())
    linking = set()
    for y in range(coarse.n_sites):
        for mu in range(2):
            yp = coarse.shift_site(y, mu)
            bonds, _ = fine.linking_bonds(coarse, y, yp)
            assert not (linking & set(bonds))
            linking |= set(bonds)
    in_block = set()
    for y in range(coarse.n_sites):
        yf = tuple(3 * c for c in coarse.site_coords(y))
        members = set(fine.block_members(yf, 1))
        for b, (s, mu) in enumerate(fine.bonds):
            if s in members and fine.shift_site(s, mu) in members:
                in_block.add(b)
    assert linking.isdisjoint(in_block)
    assert linking | in_block == set(range(fine.n_bonds))


def test_linking_bonds_non_adjacent():
    fine = unit_torus(2, 3, 2)
    coarse = build_lattice(fine.spec.coarsened())
    with pytest.raises(LatticeError):
        fine.linking_bonds(coarse, 0, 0)


def test_symmetry_group_size_and_action():
    lat = open_cube(2, 3)
    syms = lat.symmetries()
    assert len(syms) == 8
    for r in syms:
        m = r.matrix()
        assert np.allclose(m @ m.T, np.eye(2))
        perm = lat.site_permutation(r)
        assert sorted(perm) == list(range(lat.n_sites))


def test_symmetry_path_family_covariance():
    # r applied to the family of paths 0 -> x equals the family 0 -> rx
    lat = open_cube(3, 3)
    rng = np.random.default_rng(0)
    for r in lat.symmetries()[:10]:
        x = (1, -1, 1)
        rx = r.apply_site(x)
        fam_x = lat.path_family((0, 0, 0), x)
        fam_rx = lat.path_family((0, 0, 0), rx)
        mapped = []
        for p in fam_x:
            mapped.append(tuple(sorted(lat.bond_image(r, b)[0]
                                       for b, _ in p.steps)))
        target = [tuple(sorted(b for b, _ in p.steps)) for p in fam_rx]
        assert sorted(mapped) == sorted(target)


def test_spec_json_roundtrip():
    spec = LatticeSpec(3, 3, 1, 1, OPEN_CUBE)
    assert LatticeSpec.from_json(spec.to_json()) == spec


def test_every_cache_is_one_bounded_instance_cache():
    # every cache of the package is registered with clear_caches and has
    # the one finite bound
    caches = {}
    for info in pkgutil.iter_modules(caxial.__path__):
        mod = importlib.import_module(f"caxial.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info"):
                caches[id(obj)] = (f"{info.name}.{name}", obj)
    assert caches.keys() == {id(c) for c in lattice._caches}
    for name, obj in caches.values():
        assert obj.cache_info().maxsize == lattice.CACHE_SIZE, name
