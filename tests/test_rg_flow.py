import numpy as np
import pytest

from caxial.fields import ResourceCapExceeded
from caxial.rg_flow import (FlowCounts, final_step, fluctuation_step,
                            fluctuation_surface, flow_states, init_rho0,
                            minimizer_composition_residual, one_shot_final,
                            one_shot_state, rg_step, z_constants)
from caxial.gaussian import QuadraticDensity, subspace_covariance
from caxial.gauge_ops import get_context
from caxial.lattice import LatticeSpec, clear_caches

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


def test_iterated_matches_one_shot_with_source():
    rng = np.random.default_rng(5)
    source = rng.standard_normal(init_rho0(2, 3, 2).lattice.n_bonds)
    states = flow_states(2, 3, 2, source=source)
    direct = one_shot_state(2, 3, 2, 2, source=source)
    assert rel_diff(states[2].density.linear, direct.density.linear) < REL_TOL


def test_final_step_matches_one_shot():
    states = flow_states(2, 3, 2)
    iterated = final_step(states[1])
    direct = one_shot_final(2, 3, 2)
    assert abs(iterated - direct) < 1e-8


@pytest.mark.parametrize("dim,L,n_levels", [(2, 3, 2), (3, 3, 1)])
def test_partition_recursion(dim, L, n_levels):
    fc = z_constants(dim, L, n_levels)
    assert max(fc.recursion_residuals.values()) < 1e-8
    assert min(fc.min_eigs.values()) > 0


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


def test_fluctuation_step_linear():
    rng = np.random.default_rng(2)
    j = rng.standard_normal(get_context(2, 3, 2, 0).unit.n_bonds)
    out = fluctuation_step(2, 3, 2, 0, j)
    assert out.trace_term == 0.0
    # conditional-mean transport agrees with the fiber integration
    assert out.cross_residual < 1e-10


def test_fluctuation_step_quadratic_cross_check():
    from caxial.fields import curl_energy_form
    ctx = get_context(2, 3, 2, 0)
    m = curl_energy_form(ctx.unit)
    out = fluctuation_step(2, 3, 2, 0, m)
    assert out.trace_term > 0
    assert out.cross_residual < 1e-9


def test_fluctuation_covariance_factorizes():
    ctx = get_context(2, 3, 2, 0)
    cov = subspace_covariance(QuadraticDensity(ctx.delta),
                              fluctuation_surface(ctx.unit))
    c = ctx.fluct_basis
    assert rel_diff(cov, c @ ctx.fluct_cov(0.0) @ c.T) < 1e-10


def test_resource_cap(monkeypatch):
    monkeypatch.setenv("CAXIAL_MAX_DIM", "10")
    with pytest.raises(ResourceCapExceeded):
        init_rho0(2, 3, 1)
    monkeypatch.delenv("CAXIAL_MAX_DIM")
    init_rho0(2, 3, 1)


@pytest.mark.parametrize("build", [
    lambda: init_rho0(2, 3, 2), lambda: one_shot_state(2, 3, 2, 1),
    lambda: one_shot_final(2, 3, 2), lambda: z_constants(2, 3, 2)],
    ids=["init_rho0", "one_shot_state", "one_shot_final", "z_constants"])
def test_flow_guards_before_building(monkeypatch, lattice_builds, build):
    # every torus of a two-level flow has 162 bonds; the cap is checked on
    # that closed-form count before any of them is built
    specs = [LatticeSpec(2, 3, k, 2 - k) for k in range(3)]
    clear_caches()
    monkeypatch.setenv("CAXIAL_MAX_DIM", "100")
    with pytest.raises(ResourceCapExceeded,
                       match="ambient dimension 162 exceeds cap 100"):
        build()
    assert not any(spec in lattice_builds for spec in specs)


@pytest.mark.parametrize("identity", [
    lambda: minimizer_composition_residual(2, 3, 2, 0),
    lambda: fluctuation_step(2, 3, 2, 0, np.zeros(162))],
    ids=["minimizer_composition", "fluctuation_step"])
def test_cached_contexts_are_guarded(monkeypatch, identity):
    # the contexts are cached under the default cap; a lower cap still
    # rejects the identities that read them
    for level in (0, 1):
        get_context(2, 3, 2, level)
    monkeypatch.setenv("CAXIAL_MAX_DIM", "100")
    with pytest.raises(ResourceCapExceeded,
                       match="ambient dimension 162 exceeds cap 100"):
        identity()
