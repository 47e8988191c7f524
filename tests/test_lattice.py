import ast
import importlib
import itertools
import pathlib
import pkgutil

import numpy as np
import pytest

import caxial
from caxial import averaging as av
from caxial import lattice
from caxial.averaging import fluctuation_split
from caxial.fields import ext_d_matrix, grad_matrix
from caxial.gauge_ops import GaugeContext, get_context
from caxial.lattice import (LatticeSpec, LatticeError, build_lattice,
                            open_cube, unit_torus)


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
    assert lat.next[0, 0] == lat.prev[0, 0] == 0


TABLES = ("_radix", "sites", "next", "prev", "bond_sites", "bond_axes",
          "bond_index", "plaq_sites", "plaq_axes")


def _one_shape_two_spacings():
    # the torus T^1_1 and its relabeling at spacing 1/9: 9 sites per side
    lattice.clear_caches()
    fine = build_lattice(LatticeSpec(2, 3, 1, 1))
    return fine, build_lattice(fine.spec.rescaled(1))


def test_lattices_of_one_shape_share_one_table_build():
    fine, finer = _one_shape_two_spacings()
    assert fine.spacing != finer.spacing
    for name in TABLES:
        assert getattr(fine, name) is getattr(finer, name), name
    assert lattice.index_tables.cache_info().misses == 1


def test_index_tables_are_read_only():
    for name in TABLES:
        table = getattr(unit_torus(2, 3, 1), name)
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0


def test_operators_of_one_shape_share_their_layout():
    fine, finer = _one_shape_two_spacings()
    for build in (grad_matrix, ext_d_matrix):
        a, b = build(fine), build(finer)
        for name in ("indices", "indptr", "_rows"):
            assert getattr(a, name) is getattr(b, name), (build, name)
        # the entries are +-1/eta
        assert np.array_equal(a.data * fine.spacing, b.data * finer.spacing)
        assert set(np.abs(a.data * fine.spacing)) == {1.0}


def test_canonical_ordinals_lexicographic():
    lat = open_cube(2, 3)
    coords = [tuple(c) for c in lat.sites]
    assert coords == sorted(coords)
    assert coords[0] == (-1, -1)
    bonds = list(zip(lat.bond_sites.tolist(), lat.bond_axes.tolist()))
    assert bonds == sorted(bonds)


def test_block_members():
    lat = unit_torus(2, 3, 1)
    members = lat.block_members((0, 0), 1)
    got = sorted(map(tuple, lat.sites[members].tolist()))
    assert got == sorted(itertools.product((-1, 0, 1), repeat=2))
    assert lat.block_members((0, 0), 0) == [lat.site_ordinal((0, 0))]


def test_block_members_partition():
    fine = unit_torus(2, 3, 2)
    coarse = build_lattice(fine.spec.coarsened())
    seen = []
    for y in range(coarse.n_sites):
        seen.extend(fine.block_members(3 * coarse.sites[y], 1))
    assert sorted(seen) == list(range(fine.n_sites))


def test_block_members_bad_center():
    lat = unit_torus(2, 3, 1)
    with pytest.raises(LatticeError):
        lat.block_members((1, 0), 1)


def _walk(lat, start, delta, order):
    """The (bond, sign) steps and end site of one walk_bonds path."""
    bonds, signs, end = lat.walk_bonds([lat.site_ordinal(start)], [delta],
                                       order)
    taken = signs[0] != 0
    return list(zip(bonds[0, taken].tolist(), signs[0, taken].tolist())), \
        int(end[0])


def test_rectilinear_path_identity_order():
    lat = open_cube(3, 5)
    steps, _ = _walk(lat, (0, 0, 0), (2, 1, -1), (0, 1, 2))
    assert len(steps) == 4
    # identity order: x1 to its final value first, then x2, then x3
    visited = [(0, 0, 0)]
    for bond, sign in steps:
        s, mu = lat.bond_sites[bond], lat.bond_axes[bond]
        cur = lat.next[mu, s] if sign > 0 else s
        visited.append(tuple(lat.sites[cur].tolist()))
    assert (2, 0, 0) in visited and (2, 1, 0) in visited
    assert visited[-1] == (2, 1, -1)


def test_rectilinear_path_empty_and_permuted():
    lat = open_cube(2, 5)
    assert len(_walk(lat, (1, 1), (0, 0), (0, 1))[0]) == 0
    steps, _ = _walk(lat, (0, 0), (1, 1), (1, 0))
    assert lat.bond_axes[steps[0][0]] == 1  # axis 2 moved first


def _family(lat, delta):
    """The bond multisets of the dim! coordinate-ordered paths from the
    origin by delta."""
    return [tuple(sorted(_walk(lat, (0,) * lat.dim, delta, order)[0]))
            for order in itertools.permutations(range(lat.dim))]


def test_path_family_multiset():
    lat = open_cube(3, 3)
    assert len(_family(lat, (1, 1, 1))) == 6
    fam2 = _family(lat, (1, 0, 0))
    assert len(fam2) == 6
    assert len(set(fam2)) == 1  # degenerate multiset


def test_path_family_d2_distinct():
    fam = _family(open_cube(2, 3), (1, 1))
    assert len(fam) == 2
    assert len(set(fam)) == 2


def test_toron_loop():
    lat = unit_torus(2, 3, 1)
    start = lat.site_ordinal((0, 0))
    steps, end = _walk(lat, (0, 0), (lat.n_side, 0), (0,))
    assert len(steps) == 3
    assert end == start
    with pytest.raises(LatticeError):
        _walk(open_cube(2, 3), (0, 0), (3, 0), (0,))


def test_toron_loops_disjoint():
    lat = unit_torus(3, 3, 1)
    l1 = {b for b, _ in _walk(lat, (0, 0, 0), (0, 3, 0), (1,))[0]}
    l2 = {b for b, _ in _walk(lat, (1, 0, 0), (0, 3, 0), (1,))[0]}
    assert not (l1 & l2)


def test_axial_tree_comb_d2_l5():
    lat = open_cube(2, 5)
    tree = lat.axial_tree()
    assert len(tree) == 24 == lat.n_sites - 1
    # the comb: the x1-axis row plus all vertical lines
    expected = set()
    for x1 in range(-2, 2):
        expected.add(int(lat.bond_index[lat.site_ordinal((x1, 0)), 0]))
    for x1 in range(-2, 3):
        for x2 in range(-2, 2):
            expected.add(int(lat.bond_index[lat.site_ordinal((x1, x2)), 1]))
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
    adj = {b: (lat.bond_sites[b], lat.bond_axes[b]) for b in tree}
    while frontier:
        s = frontier.pop()
        for b, (base, mu) in adj.items():
            ends = (base, lat.next[mu, base])
            if s in ends:
                other = ends[1] if s == ends[0] else ends[0]
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
    assert len(reached) == lat.n_sites


@pytest.mark.parametrize("dim,L,nlink", [(2, 3, 3), (3, 3, 9)])
def test_linking_bonds(dim, L, nlink):
    split = fluctuation_split(unit_torus(dim, L, 2))
    fine, coarse = split.lattice, split.coarse
    # the coarse bond from y = 0 to y' = e_1, and its group of linking bonds
    cb = coarse.bond_index[coarse.site_ordinal((0,) * dim), 0]
    bonds = split.linking[nlink * cb:nlink * (cb + 1)]
    assert len(split.linking) == nlink * coarse.n_bonds
    central = split.central[cb]
    assert central in bonds
    assert fine.sites[fine.bond_sites[central]].tolist() \
        == [(L - 1) // 2] + [0] * (dim - 1)
    assert fine.bond_axes[central] == 0


def test_linking_bonds_partition():
    split = fluctuation_split(unit_torus(2, 3, 2))
    fine, coarse = split.lattice, split.coarse
    linking = set()
    for cb in range(coarse.n_bonds):
        bonds = split.linking[3 * cb:3 * (cb + 1)]
        assert not (linking & set(bonds))
        linking |= set(bonds)
    in_block = set()
    for y in range(coarse.n_sites):
        members = set(fine.block_members(3 * coarse.sites[y], 1))
        for b, (s, mu) in enumerate(zip(fine.bond_sites, fine.bond_axes)):
            if s in members and fine.next[mu, s] in members:
                in_block.add(b)
    assert linking.isdisjoint(in_block)
    assert linking | in_block == set(range(fine.n_bonds))
    assert in_block == set(split.in_block)


def test_symmetry_group_size_and_action():
    lat = open_cube(2, 3)
    syms = lat.symmetries()
    assert len(syms) == 8
    for r in syms:
        m = np.zeros((2, 2), dtype=int)
        m[list(r.perm), [0, 1]] = r.signs
        assert np.allclose(m @ m.T, np.eye(2))
        perm = lat.site_permutation(r)
        assert sorted(perm) == list(range(lat.n_sites))


def test_symmetry_path_family_covariance():
    # r applied to the family of paths 0 -> x equals the family 0 -> rx
    lat = open_cube(3, 3)
    rng = np.random.default_rng(0)
    for r in lat.symmetries()[:10]:
        x = (1, -1, 1)
        rx = lat.sites[lat.site_permutation(r)[lat.site_ordinal(x)]]
        dest, _ = lat.bond_permutation(r)
        mapped = [tuple(sorted(dest[b] for b, _ in p))
                  for p in _family(lat, x)]
        target = [tuple(b for b, _ in p) for p in _family(lat, rx)]
        assert sorted(mapped) == sorted(target)


def _package_modules():
    return {info.name: importlib.import_module(f"caxial.{info.name}")
            for info in pkgutil.iter_modules(caxial.__path__)}


def _package_caches():
    """Every object with cache_info in a module of the package or in a
    class of one, a property's getter included, by id."""
    caches = {}
    for mod_name, mod in _package_modules().items():
        members = [(f"{mod_name}.{name}", obj)
                   for name, obj in vars(mod).items()]
        for cls_name, cls in list(members):
            if isinstance(cls, type) and cls.__module__ == mod.__name__:
                members += [(f"{cls_name}.{name}",
                             getattr(obj, "fget", obj))
                            for name, obj in vars(cls).items()]
        for name, obj in members:
            if hasattr(obj, "cache_info"):
                caches[id(obj)] = (name, obj)
    return caches


def test_every_cache_is_one_bounded_instance_cache():
    # every cache of the package, the level contexts' members included, is
    # registered with clear_caches and has the one finite bound
    caches = _package_caches()
    assert caches.keys() == {id(c) for c in lattice._caches}
    assert "gauge_ops.GaugeContext.proj_div" in {
        name for name, _ in caches.values()}
    for name, obj in caches.values():
        assert obj.cache_info().maxsize == lattice.CACHE_SIZE, name


def test_default_and_keyword_arguments_share_one_entry():
    # an instance_cache keys on the bound arguments with their defaults:
    # f(), f(d) and f(x=d) are one cache miss and return one object
    lattice.clear_caches()
    lat = unit_torus(2, 3, 2)
    ctx = get_context(2, 3, 1, 1)
    for cached, calls in (
            (av.coarsened, (lambda: av.coarsened(lat),
                            lambda: av.coarsened(lat, 1),
                            lambda: av.coarsened(lat, n=1))),
            (GaugeContext.proj_div, (lambda: ctx.proj_div(),
                                     lambda: ctx.proj_div(1.0),
                                     lambda: ctx.proj_div(a=1.0)))):
        values = [call() for call in calls]
        assert all(v is values[0] for v in values)
        info = cached.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_caches_stay_bounded_over_many_arguments():
    # a context member keyed on its regulator evicts past CACHE_SIZE keys
    # instead of growing with every regulator it is asked for
    lattice.clear_caches()
    ctx = get_context(2, 3, 1, 1)
    for a in range(1, 101):
        ctx.proj_div(float(a))
    for name, obj in _package_caches().values():
        assert obj.cache_info().currsize <= lattice.CACHE_SIZE, name
    assert GaugeContext.proj_div.cache_info().currsize == lattice.CACHE_SIZE
    assert GaugeContext.green_scalar.cache_info().currsize \
        == lattice.CACHE_SIZE
    lattice.clear_caches()


def _names(node):
    """The identifiers a node names: a name, an attribute, an import."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    return []


def _dict_memos(tree):
    """Functions that test a container for a key and store into it: the
    shape `if key not in memo: memo[key] = build()`."""
    memos = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        stored = {ast.dump(t.value) for t in ast.walk(fn)
                  if isinstance(t, ast.Subscript)
                  and isinstance(t.ctx, ast.Store)}
        probed = {ast.dump(c.comparators[0]) for c in ast.walk(fn)
                  if isinstance(c, ast.Compare)
                  and isinstance(c.ops[0], (ast.In, ast.NotIn))}
        probed |= {ast.dump(c.func.value) for c in ast.walk(fn)
                   if isinstance(c, ast.Call)
                   and isinstance(c.func, ast.Attribute)
                   and c.func.attr in ("get", "setdefault")}
        if stored & probed:
            memos.append(getattr(fn, "name", "<lambda>"))
    return memos


def test_lattice_holds_the_only_memo():
    # one cache for every shared value: lru_cache, functools.cache and dict
    # memos appear only in lattice (under instance_cache), and
    # cached_property only for the lazy outputs of one SurfaceGaussian or
    # one CSR, not for values shared under a key
    lazy = {("gaussian", "SurfaceGaussian"), ("csr", "CSR")}
    for mod_name, mod in _package_modules().items():
        tree = ast.parse(pathlib.Path(mod.__file__).read_text())
        if mod_name != "lattice":
            assert not _dict_memos(tree), mod_name
        classes = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
        for node in ast.walk(tree):
            names = _names(node)
            if mod_name != "lattice":
                assert "lru_cache" not in names, mod_name
                assert not (isinstance(node, ast.Attribute)
                            and node.attr == "cache"
                            and _names(node.value) == ["functools"]), mod_name
                assert not (isinstance(node, ast.ImportFrom)
                            and node.module == "functools"
                            and "cache" in names), mod_name
            if "cached_property" in names:
                owner = [c.name for c in classes if node in ast.walk(c)]
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    assert mod_name in {m for m, _ in lazy}, mod_name
                else:
                    assert (mod_name, *owner) in lazy, (mod_name, owner)