import numpy as np
import pytest

from caxial.fields import curl_energy_form
from caxial.rg_flow import (FlowCounts, final_step, fluctuation_step,
                            flow_states, init_rho0,
                            minimizer_composition_residual, one_shot_final,
                            one_shot_state, rg_step, z_constants)
from caxial.gaussian import SurfaceGaussian
from caxial.gauge_ops import get_context, one_shot_constraints
from caxial.lattice import fine_torus

REL_TOL = 1e-9


def rel_diff(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1.0)


def test_flow_counts():
    c = FlowCounts(2, 3, 2)
    assert c.bonds(2) == 162 and c.sites(2) == 81
    assert c.c(0) == 0
    assert c.c(1) == (162 - 18) - (81 - 9)
    assert c.scale_log(1) == 0.0          # trivial rescaling in two dimensions
    assert FlowCounts(3, 3, 1).scale_log(1) > 0


def test_initial_state_is_gauge_invariant():
    st = init_rho0(2, 3, 2)
    assert st.gauge_residual() < 1e-12


def test_flow_preserves_gauge_invariance():
    for st in flow_states(2, 3, 2):
        assert st.gauge_residual() < 1e-9


# (3, 3, 2) is the smallest instance where the relabeling factor
# L**((dim-2)/2) is both nontrivial and actually exercised
@pytest.mark.parametrize("dim,L,n_levels", [(2, 3, 2), (3, 3, 1), (3, 3, 2)])
def test_iterated_matches_one_shot(dim, L, n_levels):
    states = flow_states(dim, L, n_levels)
    for k in range(1, n_levels + 1):
        direct = one_shot_state(dim, L, n_levels, k)
        assert rel_diff(states[k].density.form, direct.density.form) < REL_TOL
        assert abs(states[k].density.log_const
                   - direct.density.log_const) < 1e-8


def test_final_step_matches_one_shot():
    states = flow_states(2, 3, 2)
    iterated = final_step(states[1])
    direct = one_shot_final(2, 3, 2)
    assert abs(iterated - direct) < 1e-8


@pytest.mark.parametrize("dim,L,n_levels", [(2, 3, 2), (3, 3, 1)])
def test_partition_recursion(dim, L, n_levels):
    fc = z_constants(dim, L, n_levels)
    assert max(fc.recursion_residuals.values()) < 1e-8


def integrated_log_z(dim, L, n_levels, k):
    """log Z_k as the integral of the curl Gaussian over the level-k
    homogeneous one-shot surface, taken on its own."""
    fine = fine_torus(dim, L, k, n_levels - k)
    return SurfaceGaussian(curl_energy_form(fine),
                           one_shot_constraints(fine, k)).log_partition


@pytest.mark.parametrize("dim,L,n_levels", [(2, 3, 2), (3, 3, 1)])
def test_log_z_is_the_one_shot_constant(dim, L, n_levels):
    # z_constants reads log Z_k off the one-shot density, the level
    # context's axial Gaussian pushed, instead of integrating the same
    # surface again; the push's constant is that integral bit for bit
    fc = z_constants(dim, L, n_levels)
    assert set(fc.log_z) == set(range(1, n_levels + 1))
    for k, value in fc.log_z.items():
        assert value == integrated_log_z(dim, L, n_levels, k)


def test_rg_step_rejects_finished_flow():
    st = flow_states(2, 3, 1)[-1]
    with pytest.raises(ValueError):
        rg_step(st)
    with pytest.raises(ValueError):
        final_step(st)


def test_one_shot_level_range():
    with pytest.raises(ValueError):
        one_shot_state(2, 3, 2, 0)
    with pytest.raises(ValueError):
        one_shot_state(2, 3, 2, 3)


@pytest.mark.parametrize("k", [0, 1])
def test_minimizer_composition(k):
    assert minimizer_composition_residual(2, 3, 2, k) < 1e-10


def test_fluctuation_step_quadratic_cross_check():
    ctx = get_context(2, 3, 2, 0)
    m = curl_energy_form(ctx.unit)
    out = fluctuation_step(2, 3, 2, m)
    assert out.trace_term > 0
    assert out.cross_residual < 1e-9


def test_fluctuation_covariance_factorizes():
    ctx = get_context(2, 3, 2, 0)
    step = SurfaceGaussian(ctx.delta, one_shot_constraints(ctx.unit, 1))
    cov = step.covariance
    assert np.array_equal(cov, ctx.step.covariance)
    c = ctx.fluct_basis
    assert rel_diff(cov, c @ ctx.fluct_cov(0.0) @ c.T) < 1e-10
