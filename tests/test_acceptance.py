"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (visible with -s or on
failure) and asserts the stated tolerance.  The criteria pin down the
rigidity of the gauge surface, the coarse-graining identities, the
Green's-function representation of the fluctuation covariance, the
square-root quadrature, kernel decay, and the structural invariants of
the calculus on every default instance that fits the resource cap.
"""

import numpy as np

from caxial import averaging as av
from caxial.cli import DEFAULT_INSTANCES
from caxial.fields import (apply_symmetry, codiff, ext_d_matrix, grad,
                           grad_matrix, inner, norm_sq, random_field,
                           scale_field)
from caxial.gauge_ops import (change_of_gauge_check, decay_profile,
                              get_context)
from caxial.gaussian import kernel_residual
from caxial.lattice import LatticeSpec, build_lattice, open_cube, unit_torus
from caxial.fields import max_ambient_dim
from caxial.rg_flow import flow_states, one_shot_state, z_constants
from caxial.spectral import (block_curl_ratio, curl_path_kernel,
                             global_coercivity, toron_closure_kernel)

IDENTITY_TOL = 1e-9
LOOSE_TOL = 1e-8


def report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{label}: {status}{suffix}")
    assert ok, f"{label}{suffix}"


def test_criterion_1_block_rigidity():
    worst = np.inf
    for dim, L in [(2, 3), (2, 5), (3, 3)]:
        cube = open_cube(dim, L)
        for all_orders in (False, True):
            out = curl_path_kernel(cube, all_orders)
            worst = min(worst, out["min_sv"] / out["max_sv"])
    report("criterion 1 (block gauge rigidity)", worst > 1e-9,
           f"min relative singular value {worst:.3e}")


def test_criterion_2_toron_closure():
    out = toron_closure_kernel(unit_torus(2, 3, 1))
    ratio = out["min_sv"] / out["max_sv"]
    report("criterion 2 (winding closure on the torus)", ratio > 1e-9,
           f"min relative singular value {ratio:.3e}")


def test_criterion_3_scalar_bijection():
    m = av.hierarchical_scalar_bijection_matrix(unit_torus(2, 3, 2), 2)
    s = np.linalg.svd(m, compute_uv=False)
    cond = s[0] / s[-1]
    ok = m.shape == (81, 81) and s[-1] > 1e-9 * s[0] and np.isfinite(cond)
    report("criterion 3 (hierarchical scalar bijection)", ok,
           f"size {m.shape[0]}, condition {cond:.2f}")


def test_criterion_4_lower_bound_chain():
    block = block_curl_ratio(open_cube(3, 3))
    glob = global_coercivity(unit_torus(3, 3, 1))
    ok = block["ratio"] <= block["bound"] and glob["min_eig"] >= glob["floor"]
    report("criterion 4 (coercivity chain)", ok,
           f"block ratio {block['ratio']:.3f} <= {block['bound']:.0f}, "
           f"global min eig {glob['min_eig']:.3e} >= {glob['floor']:.3e}")


def test_criterion_5_covariance_representation():
    worst = 0.0
    for a in (1.0, 2.0):
        ctx = get_context(2, 3, 1, 0)
        worst = max(worst,
                    max(ctx.rep_check((0.0, 0.1, 1.0, 10.0), a).values()))
    report("criterion 5 (covariance representation)", worst <= LOOSE_TOL,
           f"max relative residual {worst:.3e}")


def test_criterion_6_rg_consistency():
    states = flow_states(2, 3, 2)
    worst = 0.0
    for k in (1, 2):
        direct = one_shot_state(2, 3, 2, k)
        worst = max(worst,
                    np.linalg.norm(states[k].density.form
                                   - direct.density.form)
                    / max(np.linalg.norm(direct.density.form), 1.0))
    z = max(z_constants(2, 3, 2).recursion_residuals.values())
    ok = worst <= 1e-9 and z <= LOOSE_TOL
    report("criterion 6 (iterated vs one-shot flow)", ok,
           f"form residual {worst:.3e}, recursion residual {z:.3e}")


def test_criterion_7_minimizer_identities():
    from caxial.rg_flow import minimizer_composition_residual
    # level 0 is the stated instance but degenerates to the identity map;
    # level 1 exercises the identities nontrivially
    alpha_res = gauge_res = 0.0
    for level in (0, 1):
        ctx = get_context(2, 3, 2, level)
        forms = [ctx.effective_form("feynman", al) for al in (0.5, 1.0, 2.0)]
        alpha_res = max(alpha_res,
                        max(np.abs(f - forms[0]).max() for f in forms[1:]))
        diff = ctx.feynman_minimizer() - ctx.axial_minimizer
        pot, *_ = np.linalg.lstsq(ctx.grad_fine, diff, rcond=None)
        gauge_res = max(gauge_res, np.abs(ctx.grad_fine @ pot - diff).max())
    comp = max(minimizer_composition_residual(2, 3, 2, k) for k in (0, 1))
    ok = alpha_res <= 1e-9 and gauge_res <= 1e-9 and comp <= LOOSE_TOL
    report("criterion 7 (minimizer identities)", ok,
           f"alpha {alpha_res:.3e}, pure-gauge {gauge_res:.3e}, "
           f"composition {comp:.3e}")


def test_criterion_8_change_of_gauge():
    ctx = get_context(2, 3, 2, 1)
    rng = np.random.default_rng(17)
    out = change_of_gauge_check(ctx, rng.standard_normal(ctx.unit.n_bonds))
    ok = (out["square"] and out["dims_match"]
          and np.isfinite(out["condition"])
          and out["mean_residual"] <= LOOSE_TOL
          and out["covariance_residual"] <= LOOSE_TOL)
    report("criterion 8 (Feynman-Landau change of gauge)", ok,
           f"condition {out['condition']:.1f}, mean "
           f"{out['mean_residual']:.3e}, cov {out['covariance_residual']:.3e}")


def test_criterion_9_square_root_quadrature():
    ctx = get_context(2, 3, 2, 1)
    ref = ctx.cov_sqrt_spectral()
    errs = [np.abs(ctx.cov_sqrt_quadrature(n) - ref).max()
            for n in (5, 10, 200)]
    order = np.log2(errs[0] / max(errs[1], 1e-300))
    ok = errs[2] <= 1e-6 and errs[1] < errs[0]
    report("criterion 9 (square-root quadrature)", ok,
           f"error {errs[2]:.3e} at 200 nodes, observed order {order:.1f} "
           "under node doubling")


def test_criterion_10_kernel_decay():
    ctx = get_context(2, 3, 3, 1)
    prof = decay_profile(ctx.axial_minimizer, ctx.fine, ctx.unit)
    ok = prof["slope"] < 0 and prof["correlation"] <= -0.9
    report("criterion 10 (minimizer kernel decay)", ok,
           f"slope {prof['slope']:.3f}, correlation {prof['correlation']:.3f}")


def _structural_residuals(dim, L, levels, rng):
    lat = unit_torus(dim, L, levels)
    res = {}
    d = ext_d_matrix(lat).toarray()
    g = grad_matrix(lat).toarray()
    res["curl of gradient"] = np.abs(d @ g).max()
    f = random_field(lat, "site", rng)
    A = random_field(lat, "bond", rng)
    res["adjointness"] = abs(inner(grad(f), A)
                             - inner(f, codiff("bond", lat)(A)))
    qb = av.bond_average_matrix(lat, 1)
    qs = av.scalar_average_matrix(lat, 1)
    coarse = av.coarsened(lat)
    gc = grad_matrix(coarse).toarray()
    res["average intertwining"] = np.abs(qb @ g - gc @ qs).max()
    fine = build_lattice(LatticeSpec(dim, L, 1, levels))
    Af = random_field(fine, "bond", rng)
    from caxial.fields import ext_d
    res["scale invariance"] = abs(norm_sq(ext_d(Af))
                                  - norm_sq(ext_d(scale_field(Af, 1))))
    tau = av.path_average_matrix(lat)
    by_pair = dict(zip(tau.rows, tau.matrix @ A.values))
    worst = 0.0
    for sym in lat.symmetries()[:4]:
        lhs = tau.matrix @ apply_symmetry(sym, A).values
        rinv = sym.inverse()
        for (y, x), v in zip(tau.rows, lhs):
            yi = tau.coarse.site_ordinal(
                rinv.apply_site(tau.coarse.site_coords(y)))
            xi = lat.site_ordinal(rinv.apply_site(lat.site_coords(x)))
            worst = max(worst, abs(v - by_pair[(yi, xi)]))
    res["symmetry covariance"] = worst
    res["closed averages closed"] = kernel_residual(
        *av.closed_average_symbols(lat))
    res["recovery inverts gradient"] = kernel_residual(
        *av.recovery_inverse_symbols(lat))
    ctx = get_context(dim, L, levels, min(1, levels))
    res["average Green projector"] = np.abs(
        ctx.scalar_average @ ctx.green_scalar() @ ctx.proj_div()).max()
    r = ctx.proj_div()
    res["projector idempotent"] = np.abs(r @ r - r).max()
    return res


def test_criterion_11_structural_invariants():
    rng = np.random.default_rng(23)
    worst, worst_label = 0.0, ""
    checked = 0
    for dim, L, levels in DEFAULT_INSTANCES:
        if LatticeSpec(dim, L, 0, levels).n_bonds > max_ambient_dim():
            continue
        checked += 1
        for label, value in _structural_residuals(dim, L, levels,
                                                  rng).items():
            if value > worst:
                worst, worst_label = value, f"{label} d{dim} L{L} N{levels}"
    ok = worst <= IDENTITY_TOL and checked >= 6
    report("criterion 11 (structural invariants)", ok,
           f"{checked} instances, worst residual {worst:.3e} "
           f"[{worst_label}]")
