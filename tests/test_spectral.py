import numpy as np
import pytest

from caxial.averaging import (hierarchical_scalar_bijection_matrix,
                              hierarchical_scalar_row_groups)
from caxial.lattice import open_cube, unit_torus
from caxial.spectral import (block_curl_ratio, curl_path_kernel,
                             global_coercivity, grouped_singular_values,
                             toron_closure_kernel)

BIJECTION_INSTANCES = [(2, 3, 1), (2, 3, 2), (2, 3, 3), (2, 5, 1), (2, 5, 2),
                       (3, 3, 1), (3, 3, 2)]


@pytest.mark.parametrize("dim,L", [(2, 3), (2, 5), (3, 3)])
@pytest.mark.parametrize("all_orders", [False, True])
def test_curl_plus_path_average_is_rigid_on_block(dim, L, all_orders):
    out = curl_path_kernel(open_cube(dim, L), all_orders=all_orders)
    assert out["trivial"]


def test_curl_plus_path_average_alone_not_rigid_on_torus():
    # on a torus the constant shifts survive; windings are needed
    out = curl_path_kernel(unit_torus(2, 3, 1))
    assert not out["trivial"]


def test_winding_averages_close_the_kernel():
    out = toron_closure_kernel(unit_torus(2, 3, 1))
    assert out["trivial"]


@pytest.mark.parametrize("dim,L", [(2, 3), (2, 5), (3, 3)])
def test_blockwise_curl_controls_norm(dim, L):
    out = block_curl_ratio(open_cube(dim, L))
    assert 0 < out["ratio"] <= out["bound"]


@pytest.mark.parametrize("dim", [2, 3])
def test_global_coercivity_floor(dim):
    out = global_coercivity(unit_torus(dim, 3, 1))
    assert out["min_eig"] >= out["floor"]


def test_hierarchical_scalar_change_of_variables_invertible():
    fine = unit_torus(2, 3, 2)
    m = hierarchical_scalar_bijection_matrix(fine, 2)
    assert m.shape == (81, 81)
    s = np.linalg.svd(m.toarray(), compute_uv=False)
    assert s[-1] > 1e-9 * s[0]
    assert np.isfinite(s[0] / s[-1])


def _bijection(dim, L, levels):
    fine = unit_torus(dim, L, levels)
    return (hierarchical_scalar_bijection_matrix(fine, levels),
            hierarchical_scalar_row_groups(fine, levels))


@pytest.mark.parametrize("dim,L,levels", BIJECTION_INSTANCES)
def test_grouped_certificate_matches_dense_svd(dim, L, levels):
    m, layout = _bijection(dim, L, levels)
    dense = np.linalg.svd(m.toarray(), compute_uv=False)     # the oracle
    s = grouped_singular_values(m, layout)
    assert s.shape == dense.shape
    assert np.abs(s - dense).max() <= 1e-12 * dense[0]
    ratio = s[-1] / s[0]
    assert abs(ratio - dense[-1] / dense[0]) <= 1e-12 * ratio
    closed_form = float(L) ** (-dim * (levels + 1) / 2)
    assert abs(ratio - closed_form) <= 1e-12 * closed_form


def test_row_groups_follow_the_matrix_rows():
    m, layout = _bijection(2, 3, 2)
    assert [(rows, sup.shape) for rows, sup in layout] == [
        (1, (1, 81)), (8, (9, 9)), (8, (1, 81))]
    assert sum(rows * len(sup) for rows, sup in layout) == m.shape[0]


def test_entry_off_its_group_support_is_refused():
    m, layout = _bijection(2, 3, 2)
    bad = m.toarray()
    # the first level-0 row lives on the first block's nine sites
    off = np.setdiff1d(np.arange(m.shape[1]), layout[1][1][0])[0]
    bad[1, off] = 1e-300
    with pytest.raises(np.linalg.LinAlgError, match="off its group"):
        grouped_singular_values(bad, layout)


def test_top_row_not_orthogonal_to_the_levels_is_refused():
    m, layout = _bijection(2, 3, 2)
    bad = m.toarray()
    bad[0, 0] *= 1 + 1e-6                # still on its support
    with pytest.raises(np.linalg.LinAlgError, match="not orthogonal"):
        grouped_singular_values(bad, layout)


def test_layout_that_does_not_partition_is_refused():
    m, layout = _bijection(2, 3, 1)
    rows, supports = layout[1]
    twice = supports.copy()
    twice[0, 0] = twice[0, 1]
    with pytest.raises(np.linalg.LinAlgError, match="partition"):
        grouped_singular_values(m, (layout[0], (rows, twice)))
