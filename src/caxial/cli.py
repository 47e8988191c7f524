"""Batch verification harness.

`caxial verify` runs the identity and proposition checks over a matrix of
lattice instances and writes a machine-readable JSON report.  Checks are
grouped into suites; each produces one record per (check, instance) with
the measured residual or eigenvalue, the threshold it is held to, and a
pass/fail flag.  The run is instance-major: the suites of one instance
share its cached level contexts and iterated flow, which are dropped
before the next instance starts; the report lists the records suite by
suite, each suite over the instances in config order.
Every check declares its cost, the entries of the largest array it builds,
from closed-form `LatticeSpec` counts; `Runner.check`, the one resource
guard, skips a check costing over CAXIAL_MAX_DIM**2 before it builds
anything, with the cost in the reason.  Given the same config and seed the
report is reproducible bit for bit except for the wall_time fields.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import numpy.random     # loaded with the package, not inside a check

from . import averaging as av
from . import spectral
from .fields import (apply_symmetry, codiff, curl_energy_form, ext_d_matrix,
                     grad_matrix, laplacian_matrix, random_field, scale_field)
from .gauge_ops import (NPOINTS, change_of_gauge_check, decay_profile,
                        get_context)
from .gaussian import RANK_TOL, kernel_residual, operator_max_abs
from .lattice import (OPEN_CUBE, LatticeSpec, build_lattice, clear_caches,
                      fine_torus, instance_cache, open_cube, unit_torus)
from .rg_flow import (final_step, fluctuation_step, flow_states,
                      minimizer_composition_residual, one_shot_final,
                      one_shot_state, z_constants)

SCHEMA_VERSION = 1

SUITES = ("geometry", "calculus", "averaging", "gauge_surface",
          "feynman_landau", "lower_bound", "representation", "rg",
          "sqrt", "decay", "appendix")

# every code path is covered by this matrix at desk scale
DEFAULT_INSTANCES = (
    (2, 3, 1), (2, 3, 2), (2, 3, 3),
    (2, 5, 1), (2, 5, 2), (2, 5, 3),
    (3, 3, 1), (3, 3, 2),
)

# the fixed parameters of the checks; every report echoes them
A_LIST = (1.0, 2.0)             # Green's-function regulators
ALPHA_LIST = (0.5, 2.0)         # Feynman gauge-fixing weights
X_LIST = (0.1, 1.0, 10.0)       # covariance shifts, besides 0
DECAY_MIN_CORR = 0.9            # floor of the decay fit's |correlation|
DEFAULT_MAX_DIM = 5000          # the cap unless CAXIAL_MAX_DIM is set


class ConfigError(Exception):
    pass


def max_ambient_dim() -> int:
    """The largest dense dimension a check may form: CAXIAL_MAX_DIM if set,
    else DEFAULT_MAX_DIM; ValueError unless a positive integer."""
    cap = int(os.environ.get("CAXIAL_MAX_DIM", DEFAULT_MAX_DIM))
    if cap < 1:
        raise ValueError(f"{cap} is not a positive dimension")
    return cap


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(value, check) -> bool:
    """value is a list or tuple whose items all pass check."""
    return isinstance(value, (list, tuple)) and all(map(check, value))


@dataclass
class RunConfig:
    """What `caxial verify` runs and with which thresholds.

    The fields are the JSON config keys; any other key is an error.
    identity_tol is the threshold of the identity checks.  The one rank
    cut, gaussian.RANK_TOL, is the threshold of the gauge_surface floor
    checks and the relative rank cut of every kernel certificate and
    constraint factor.  The regulators, gauge-fixing weights, shifts,
    quadrature nodes and decay floor are the module constants A_LIST,
    ALPHA_LIST, X_LIST, NPOINTS (of `gauge_ops`, with its Gauss-Legendre
    rules) and DECAY_MIN_CORR.
    """

    instances: tuple = DEFAULT_INSTANCES
    suites: tuple = SUITES
    identity_tol: float = 1e-8
    seed: int = 42
    report: str = None
    csv_dir: str = None

    def validate(self):
        """Raise ConfigError unless every field has its type and range;
        the values come from a JSON file or the command line."""
        if not _list_of(self.suites, lambda s: isinstance(s, str)):
            raise ConfigError(f"suites must be a list of names, got "
                              f"{self.suites!r}")
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}")
        if len(set(self.suites)) != len(self.suites):
            raise ConfigError(f"suites: {self.suites!r} repeats a suite")
        if not isinstance(self.instances, (list, tuple)) or not self.instances:
            raise ConfigError("no instances configured")
        for inst in self.instances:
            if not _list_of(inst, _integer) or len(inst) != 3:
                raise ConfigError(f"instances: {inst!r} is not three "
                                  "integers [dim, L, levels]")
            dim, L, levels = inst
            if dim not in (2, 3) or L < 3 or L % 2 == 0 or levels < 1:
                raise ConfigError(f"bad instance {inst}")
        if len(set(map(tuple, self.instances))) != len(self.instances):
            raise ConfigError(f"instances: {self.instances!r} repeats an "
                              "instance")
        if not _number(self.identity_tol):
            raise ConfigError("identity_tol must be a number")
        if not 0 < self.identity_tol < np.inf:
            raise ConfigError("identity_tol must be positive and finite")
        if not _integer(self.seed) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        for name in ("report", "csv_dir"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a path")
        # the outputs are written after every check has run
        if self.report is not None and (
                os.path.isdir(self.report) or not os.path.isdir(
                    os.path.dirname(os.path.abspath(self.report)))):
            raise ConfigError(f"report: {self.report!r} is not a file in "
                              "an existing directory")
        if self.csv_dir is not None and os.path.exists(self.csv_dir) \
                and not os.path.isdir(self.csv_dir):
            raise ConfigError(f"csv_dir: {self.csv_dir!r} is not a "
                              "directory")
        try:
            max_ambient_dim()
        except ValueError as exc:
            raise ConfigError(f"CAXIAL_MAX_DIM: {exc}") from None
        return self


def config_from_args(args) -> RunConfig:
    data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
    cfg = RunConfig()
    known = set(RunConfig.__dataclass_fields__)
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v
                          for v in value)
        setattr(cfg, key, value)
    if args.dim is not None or args.L is not None or args.levels is not None:
        if None in (args.dim, args.L, args.levels):
            raise ConfigError("--dim, --L and --levels must be given together")
        cfg.instances = ((args.dim, args.L, args.levels),)
    if args.suite and args.suite != "all":
        cfg.suites = tuple(args.suite.split(","))
    if args.tol is not None:
        cfg.identity_tol = args.tol
    if args.seed is not None:
        cfg.seed = args.seed
    if args.report is not None:
        cfg.report = args.report
    if args.csv_dir is not None:
        cfg.csv_dir = args.csv_dir
    return cfg.validate()


# -- check bookkeeping -------------------------------------------------------

class Runner:
    def __init__(self, config: RunConfig):
        self.config = config
        self.cap = max_ambient_dim()
        self.checks = []
        self.decay_tables = {}

    def check(self, check_id, anchor, instance, fn, threshold,
              mode="residual", *, cost):
        """Run one check; fn returns the measured value, which passes iff
        it is <= threshold, or >= threshold in mode "floor".  cost is the
        number of entries in the largest array the check builds: over the
        cap squared the check is SKIPPED, before fn builds anything."""
        start = time.perf_counter()
        record = {"check_id": check_id, "anchor": anchor,
                  "instance": list(instance), "threshold": threshold,
                  "status": None, "value": None}
        if cost > self.cap**2:
            record["status"] = "SKIPPED"
            record["reason"] = (f"declared cost {cost} exceeds cap "
                                f"{self.cap}**2 = {self.cap**2} entries")
        else:
            try:
                value = float(fn())
            except Exception as exc:   # a crashed check is a failed check
                record["status"] = "ERROR"
                record["reason"] = f"{type(exc).__name__}: {exc}"
            else:
                record["value"] = value
                ok = value >= threshold if mode == "floor" \
                    else value <= threshold
                record["status"] = "PASS" if ok else "FAIL"
        record["wall_time"] = time.perf_counter() - start
        self.checks.append(record)
        return record

    def rng(self, *salt) -> np.random.Generator:
        return _rng(self.config.seed, *salt)


def _rng(seed, *salt) -> np.random.Generator:
    """The random stream of a check, salted by the check and instance."""
    return np.random.default_rng((seed,) + salt)


# A value that several checks of an instance read is cached where it is
# built (the flow by rg_flow, the roots and profiles by the level context);
# cli caches only what depends on the run's seed.  An exception is not
# cached, so each check that reads the value records its own.

@instance_cache
def _change_of_gauge(dim, L, n_levels, seed):
    """The appendix's change of gauge at level 1, applied to a random bond
    vector."""
    c = get_context(dim, L, n_levels, 1)
    rng = _rng(seed, 9, dim, L, n_levels)
    return change_of_gauge_check(c, rng.standard_normal(c.unit.n_bonds))


def _rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1.0))


# -- declared costs ----------------------------------------------------------
# Entries of the largest array a check builds, in closed form; a suite
# computes one per lattice or level context (all share the fine lattice).

def _tables(spec: LatticeSpec) -> int:
    """A lattice's index tables; they bound its CSR grad and ext_d too."""
    return (4 * spec.dim * spec.n_sites + 2 * spec.n_bonds
            + 3 * spec.n_plaquettes)


def _symbols(spec: LatticeSpec) -> int:
    """The block-Fourier symbol of ext_d on a torus, a row per plaquette by
    the bonds of a block; it bounds the scalar bijection's row groups too."""
    return spec.n_plaquettes * spec.dim * spec.L**spec.dim


def _dense(spec: LatticeSpec) -> int:
    """A dense matrix on the bonds of a lattice."""
    return spec.n_bonds**2


# -- suites ------------------------------------------------------------------

def suite_geometry(run: Runner, inst):
    dim, L, levels = inst
    torus = _tables(LatticeSpec(dim, L, 0, levels))

    def counts():
        lat = fine_torus(dim, L, 0, levels)
        sites = L ** (dim * levels)
        plaq = dim * (dim - 1) // 2 * sites
        return (abs(lat.n_sites - sites) + abs(lat.n_bonds - dim * sites)
                + abs(lat.n_plaquettes - plaq))
    run.check("geometry.counts",
              "site/bond/plaquette counts on the torus match closed forms",
              inst, counts, 0, cost=torus)

    def tree():
        cube = open_cube(dim, L)
        return abs(len(cube.axial_tree()) - (cube.n_sites - 1))
    run.check("geometry.spanning_tree",
              "axial path family on an open block is a spanning tree",
              inst, tree, 0,
              cost=_tables(LatticeSpec(dim, L, boundary=OPEN_CUBE)))

    def blocks():
        lat = fine_torus(dim, L, 0, levels)
        members = list(lat.block_members((0,) * dim, 1))
        return abs(len(members) - L ** dim)
    run.check("geometry.block_size",
              "blocks contain exactly L^dim sites", inst, blocks, 0,
              cost=torus)


def suite_calculus(run: Runner, inst):
    dim, L, levels = inst
    tol = run.config.identity_tol
    torus = _tables(LatticeSpec(dim, L, 0, levels))
    lat = functools.partial(fine_torus, dim, L, 0, levels)

    def curl_grad():
        lattice = lat()
        prod = ext_d_matrix(lattice) @ grad_matrix(lattice)
        return operator_max_abs(prod.data)  # the entries not stored are 0
    run.check("calculus.curl_of_gradient",
              "the curl of every gradient vanishes identically", inst,
              curl_grad, 0, cost=torus)

    def adjoint():
        lattice = lat()
        rng = run.rng(1, *inst)
        f = random_field(lattice, "site", rng)
        A = random_field(lattice, "bond", rng)
        w = lattice.spacing**dim
        lhs = w * float((grad_matrix(lattice) @ f) @ A)
        rhs = w * float(f @ (codiff("bond", lattice) @ A))
        return abs(lhs - rhs) / max(abs(rhs), 1.0)
    run.check("calculus.adjointness",
              "gradient and weighted divergence are mutual adjoints", inst,
              adjoint, tol, cost=torus)

    def curl_energy(lattice, A):
        dA = ext_d_matrix(lattice) @ A
        return lattice.spacing**dim * float(dA @ dA)

    def scale_inv():
        fine = fine_torus(dim, L, 1, levels)
        A = random_field(fine, "bond", run.rng(2, *inst))
        before = curl_energy(fine, A)
        after = curl_energy(build_lattice(fine.spec.rescaled(1)),
                            scale_field(fine, A, 1))
        return abs(before - after) / max(abs(before), 1.0)
    run.check("calculus.curl_energy_scale_invariance",
              "the curl energy is invariant under lattice relabeling", inst,
              scale_inv, tol, cost=_tables(LatticeSpec(dim, L, 1, levels)))

    def symmetry():
        lattice = lat()
        A = random_field(lattice, "bond", run.rng(3, *inst))
        tau = av.path_average_matrix(lattice)
        rhs = tau.matrix @ A
        ys, xs = tau.rows.T
        row_at = np.full(lattice.n_sites, -1)   # a fine site is in one row
        row_at[xs] = np.arange(len(xs))
        worst = 0.0
        for sym in lattice.symmetries()[:6]:
            lhs = tau.matrix @ apply_symmetry(sym, lattice, "bond", A)
            rinv = sym.inverse()
            image = row_at[lattice.site_permutation(rinv)[xs]]
            if np.any(image < 0) or np.any(
                    ys[image] != tau.coarse.site_permutation(rinv)[ys]):
                raise KeyError("a symmetry image of a row is not a row")
            worst = max(worst, operator_max_abs(lhs - rhs[image]))
        return worst
    run.check("calculus.path_average_symmetry",
              "path averages commute with the point symmetries of the "
              "lattice", inst, symmetry, tol, cost=torus)


def suite_averaging(run: Runner, inst):
    dim, L, levels = inst
    tol = run.config.identity_tol
    cost = _symbols(LatticeSpec(dim, L, 0, levels))
    lat = functools.partial(fine_torus, dim, L, 0, levels)

    def intertwine():
        lattice = lat()
        coarse = av.coarsened(lattice)
        qb = av.bond_average_matrix(lattice, 1)
        qs = av.scalar_average_matrix(lattice, 1)
        diff = qb @ grad_matrix(lattice) - grad_matrix(coarse) @ qs
        return operator_max_abs(diff.data)  # the entries not stored are 0
    run.check("averaging.gradient_intertwining",
              "bond averaging of a gradient is the gradient of the scalar "
              "average", inst, intertwine, tol, cost=cost)

    def stokes():
        return kernel_residual(*av.closed_average_symbols(lat()))
    run.check("averaging.closed_fields_average_closed",
              "the block average of a curl-free field is curl-free", inst,
              stokes, tol, cost=cost)

    def recovery():
        lattice = lat()
        Z = random_field(lattice, "bond", run.rng(4, *inst))
        mu = av.scalar_recovery_matrix(lattice) @ Z
        tau = av.path_average_matrix(lattice).matrix
        g = grad_matrix(lattice)
        qs = av.scalar_average_matrix(lattice, 1)
        return max(operator_max_abs(tau @ (Z + g @ mu)),
                   operator_max_abs(qs @ mu))
    run.check("averaging.scalar_recovery",
              "the recovered potential cancels all in-block path averages "
              "and has zero block average", inst, recovery, tol, cost=cost)

    def recovery_inverse():
        return kernel_residual(*av.recovery_inverse_symbols(lat()))
    run.check("averaging.recovery_inverts_gradient",
              "on zero-average scalars the recovery operator inverts minus "
              "the gradient", inst, recovery_inverse, tol, cost=cost)

    def stack_rows():
        lattice = lat()
        stack = av.axial_constraint_stack(lattice, levels)
        sizes = [L ** (dim * (levels - j)) for j in range(levels + 1)]
        want = tuple(sizes[j] - sizes[j + 1] for j in range(levels))
        return 0 if stack.rows_per_level == want else 1
    run.check("averaging.stack_row_counts",
              "per-level constraint counts telescope against the site "
              "counts", inst, stack_rows, 0, cost=cost)


def suite_gauge_surface(run: Runner, inst):
    dim, L, levels = inst
    cube = _dense(LatticeSpec(dim, L, boundary=OPEN_CUBE))

    for label, all_orders in (("tree", False), ("averaged", True)):
        def kernel(all_orders=all_orders):
            out = spectral.curl_path_kernel(open_cube(dim, L), all_orders)
            return out["min_sv"] / out["max_sv"]
        run.check(f"gauge_surface.block_rigidity_{label}",
                  "curl plus path averages determine the field on an open "
                  "block (smallest relative singular value)", inst, kernel,
                  RANK_TOL, "floor", cost=cube)

    def closure():
        lattice = fine_torus(dim, L, 0, 1)
        out = spectral.toron_closure_kernel(lattice)
        return out["min_sv"] / out["max_sv"]
    run.check("gauge_surface.toron_closure",
              "winding averages close the residual kernel on the torus",
              inst, closure, RANK_TOL, "floor",
              cost=_dense(LatticeSpec(dim, L, 0, 1)))

    def bijection():
        fine = unit_torus(dim, L, levels)
        m = av.hierarchical_scalar_bijection_matrix(fine, levels)
        s = spectral.grouped_singular_values(
            m, av.hierarchical_scalar_row_groups(fine, levels))
        return s[-1] / s[0]
    run.check("gauge_surface.scalar_hierarchy_bijection",
              "the hierarchical scalar change of variables is square and "
              "invertible", inst, bijection, RANK_TOL, "floor",
              cost=_symbols(LatticeSpec(dim, L, 0, levels)))


def suite_feynman_landau(run: Runner, inst):
    dim, L, levels = inst
    tol = run.config.identity_tol
    cost = _dense(LatticeSpec(dim, L, 0, levels))
    ctx = functools.partial(get_context, *inst, 1)

    def idempotent():
        r = ctx().proj_div()
        return max(operator_max_abs(r @ r - r), operator_max_abs(r - r.T))
    run.check("feynman_landau.projector_idempotent",
              "the divergence projector is symmetric idempotent", inst,
              idempotent, tol, cost=cost)

    run.check("feynman_landau.average_green_projector",
              "averaging through the Green's function annihilates the "
              "divergence projector", inst,
              lambda: operator_max_abs(ctx().scalar_average
                                       @ ctx().green_scalar()
                                       @ ctx().proj_div()), tol, cost=cost)

    def a_indep():
        a1, a2 = A_LIST
        return operator_max_abs(ctx().proj_div(a1) - ctx().proj_div(a2))
    run.check("feynman_landau.projector_regulator_independence",
              "the divergence projector does not depend on the regulator",
              inst, a_indep, tol, cost=cost)

    def alpha_indep():
        first, second = (ctx().feynman_form(al) for al in ALPHA_LIST)
        return _rel(second, first)
    run.check("feynman_landau.alpha_independence",
              "the effective coarse form does not depend on the "
              "gauge-fixing weight", inst, alpha_indep, tol, cost=cost)

    def forms_agree():
        c = ctx()
        return _rel(c.feynman_form(), c.delta)
    run.check("feynman_landau.minimizer_forms_agree",
              "penalized and constrained minimizers induce the same "
              "coarse form", inst, forms_agree, tol, cost=cost)

    def pure_gauge():
        c = ctx()
        diff = c.feynman_minimizer() - c.axial_minimizer
        pot, *_ = np.linalg.lstsq(c.grad_fine, diff, rcond=None)
        return operator_max_abs(c.grad_fine @ pot - diff)
    run.check("feynman_landau.minimizers_differ_by_gradient",
              "the two minimizers differ by a pure gauge", inst,
              pure_gauge, tol, cost=cost)

    def lambda0():
        c = ctx()
        lam = c.lambda0_map()
        return max(operator_max_abs(c.scalar_average @ lam
                                    - np.eye(c.unit.n_sites)),
                   operator_max_abs(c.proj_div() @ c.lap_fine @ lam))
    run.check("feynman_landau.scalar_potential_equations",
              "the distinguished scalar potential solves its defining "
              "equations", inst, lambda0, tol, cost=cost)


def suite_lower_bound(run: Runner, inst):
    dim, L, levels = inst

    def block():
        out = spectral.block_curl_ratio(open_cube(dim, L))
        return out["bound"] - out["ratio"]
    run.check("lower_bound.blockwise_curl",
              "on the path-average kernel of one block the curl energy "
              "controls the norm with constant 3 L^dim", inst, block, 0.0,
              "floor", cost=_dense(LatticeSpec(dim, L, boundary=OPEN_CUBE)))

    def coercive():
        lattice = fine_torus(dim, L, 0, 1)
        out = spectral.global_coercivity(lattice)
        return out["min_eig"] - out["floor"]
    run.check("lower_bound.global_coercivity",
              "curl energy plus block average is coercive on the "
              "path-average kernel, above the guaranteed floor", inst,
              coercive, 0.0, "floor", cost=_dense(LatticeSpec(dim, L, 0, 1)))

    def surface_positive():
        return min(s.step.min_eig for s in flow_states(*inst)[:levels])
    run.check("lower_bound.flow_forms_positive",
              "every flow density is positive definite on its fluctuation "
              "surface", inst, surface_positive, 0.0, "floor",
              cost=_dense(LatticeSpec(dim, L, 0, levels)))


def suite_representation(run: Runner, inst):
    dim, L, levels = inst
    tol = run.config.identity_tol
    cost = _dense(LatticeSpec(dim, L, 0, levels))
    ctx = functools.partial(get_context, *inst, 0)

    for a in A_LIST:
        def rep(a=a):
            xs = (0.0,) + X_LIST
            return max(ctx().rep_check(xs, a).values())
        run.check(f"representation.covariance_identity_a{a:g}",
                  "the fluctuation covariance equals the compressed "
                  "Green's-function representation for all configured "
                  "shifts", inst, rep, tol, cost=cost)

    # the max-abs checks read the first block column of their symbols
    def annihilation():
        c = ctx()
        return operator_max_abs(c.bond_average_next_symbol
                                @ c.tilde_green(0.0))
    run.check("representation.reduced_green_annihilates_average",
              "the reduced Green's function lies in the kernel of the "
              "next averaging", inst, annihilation, tol, cost=cost)

    def projection():
        c = ctx()
        x = X_LIST[0]
        g = c.tilde_green(x)
        return operator_max_abs(g @ c.fine_operator(x) @ g - g)
    run.check("representation.reduced_green_projection",
              "the reduced Green's function is idempotent against the "
              "regularized operator", inst, projection, tol, cost=cost)


def suite_rg(run: Runner, inst):
    dim, L, levels = inst
    tol = run.config.identity_tol
    cost = _dense(LatticeSpec(dim, L, 0, levels))

    def gauge_invariant():
        return max(s.gauge_residual() for s in flow_states(*inst))
    run.check("rg.flow_gauge_invariance",
              "every density of the flow annihilates coarse gradients",
              inst, gauge_invariant, tol, cost=cost)

    def one_shot_agree():
        states = flow_states(*inst)
        worst = 0.0
        for k in range(1, levels + 1):
            direct = one_shot_state(dim, L, levels, k)
            worst = max(worst,
                        _rel(states[k].density.form, direct.density.form),
                        abs(states[k].density.log_const
                            - direct.density.log_const))
        return worst
    run.check("rg.iterated_matches_one_shot",
              "the iterated flow agrees with the single constrained "
              "integration at every level, constants included", inst,
              one_shot_agree, tol, cost=cost)

    def final():
        states = flow_states(*inst)
        return abs(final_step(states[levels - 1])
                   - one_shot_final(dim, L, levels))
    run.check("rg.final_winding_step",
              "the last step with winding averages matches its one-shot "
              "form", inst, final, tol, cost=cost)

    def recursion():
        fc = z_constants(dim, L, levels)
        return max(fc.recursion_residuals.values())
    run.check("rg.partition_recursion",
              "the normalization constants satisfy the step recursion "
              "exactly", inst, recursion, tol, cost=cost)

    def composition():
        return max(minimizer_composition_residual(dim, L, levels, k)
                   for k in range(levels))
    run.check("rg.minimizer_composition",
              "minimizing in two stages equals minimizing once at the "
              "finer level", inst, composition, tol, cost=cost)

    def fluct():
        ctx = get_context(*inst, 0)
        m = curl_energy_form(ctx.unit)
        return fluctuation_step(dim, L, levels, m).cross_residual
    run.check("rg.fluctuation_transport",
              "transporting a quadratic functional through the "
              "fluctuation integral agrees between the direct and the "
              "square-root parametrization", inst, fluct, tol, cost=cost)


def suite_sqrt(run: Runner, inst):
    dim, L, levels = inst
    cost = _dense(LatticeSpec(dim, L, 0, levels))
    # at a single level the blocked lattice degenerates; stay at level 0
    ctx = functools.partial(get_context, *inst, 1 if levels >= 2 else 0)

    def error(npoints):
        return operator_max_abs(ctx().cov_sqrt_quadrature(npoints)
                                - ctx().cov_sqrt_spectral())

    run.check("sqrt.quadrature_matches_spectral",
              "the quadrature square root matches the spectral one", inst,
              lambda: error(NPOINTS), 1e-6, cost=cost)

    def converges():
        e_half, e_full = error(NPOINTS // 2), error(NPOINTS)
        # both may already sit on the rounding floor; only a genuine
        # regression above it counts against convergence
        return e_full / max(e_half, 1e-12)
    run.check("sqrt.quadrature_converges",
              "doubling the node count does not worsen the square-root "
              "error", inst, converges, 1.0, cost=cost)

    def square():
        root = ctx().cov_sqrt_spectral()
        return operator_max_abs(root @ root - ctx().fluct_cov(0.0))
    run.check("sqrt.root_squares_to_covariance",
              "the square of the computed root is the fluctuation "
              "covariance", inst, square, run.config.identity_tol, cost=cost)


def suite_decay(run: Runner, inst):
    dim, L, levels = inst
    cost = _dense(LatticeSpec(dim, L, 0, levels))

    def massive():
        lattice = fine_torus(dim, L, 0, 1)
        g0 = np.linalg.inv(laplacian_matrix(lattice).toarray()
                           + np.eye(lattice.n_sites))
        prof = decay_profile(g0, lattice, lattice, kind="site")
        run.decay_tables[("massive_green", dim, L, 1)] = prof["table"]
        return prof["slope"]
    run.check("decay.massive_green_function",
              "the massive Green's function decays (negative fitted "
              "log-slope)", inst, massive, 0.0,
              cost=_dense(LatticeSpec(dim, L, 0, 1)))

    if levels >= 2:
        def minimizer():
            prof = get_context(*inst, 1).minimizer_profile()
            run.decay_tables[("minimizer", dim, L, levels)] = prof["table"]
            return prof["slope"]
        run.check("decay.minimizer_kernel_slope",
                  "the minimizer kernel decays (negative fitted log-slope)",
                  inst, minimizer, 0.0, cost=cost)

    # the fit-quality gate needs enough distance classes: side >= 27
    if dim == 2 and L ** levels >= 27:
        def correlated():
            return -get_context(*inst, 1).minimizer_profile()["correlation"]
        run.check("decay.minimizer_fit_quality",
                  "on a large instance the exponential fit of the "
                  "minimizer kernel is tight", inst, correlated,
                  DECAY_MIN_CORR, "floor", cost=cost)


def suite_appendix(run: Runner, inst):
    dim, L, levels = inst
    tol = run.config.identity_tol
    cost = _dense(LatticeSpec(dim, L, 0, levels))

    def result():
        return _change_of_gauge(*inst, run.config.seed)

    run.check("appendix.scalar_split_dimensions",
              "coarse scalars plus divergence directions exhaust the fine "
              "scalars, and the split map is invertible", inst,
              lambda: 0 if (result()["invertible"] and result()["dims_match"])
              else 1, 0, cost=cost)

    run.check("appendix.gauge_change_moments",
              "the substitution map carries the penalized-Gaussian "
              "moments to the projected-surface moments", inst,
              lambda: max(result()["mean_residual"],
                          result()["covariance_residual"]), tol, cost=cost)


SUITE_FUNCS = {name: globals()[f"suite_{name}"] for name in SUITES}


# -- reports -----------------------------------------------------------------

def build_report(run: Runner) -> dict:
    config, checks = run.config, run.checks
    summary = {"total": len(checks)}
    for status in ("PASS", "FAIL", "ERROR", "SKIPPED"):
        summary[status.lower()] = sum(1 for c in checks
                                      if c["status"] == status)
    return {
        "schema": SCHEMA_VERSION,
        "config": {
            "instances": [list(i) for i in config.instances],
            "suites": list(config.suites),
            "identity_tol": config.identity_tol,
            "rank_tol": RANK_TOL,
            "decay_min_corr": DECAY_MIN_CORR,
            "a_list": list(A_LIST),
            "alpha_list": list(ALPHA_LIST),
            "x_list": list(X_LIST),
            "npoints": NPOINTS,
            "seed": config.seed,
            "max_ambient_dim": run.cap,
        },
        "checks": checks,
        "summary": summary,
    }


def write_csv_tables(run: Runner, directory: str):
    os.makedirs(directory, exist_ok=True)
    for (name, dim, L, levels), table in sorted(run.decay_tables.items()):
        path = os.path.join(directory,
                            f"decay_{name}_d{dim}_L{L}_N{levels}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["distance", "max_abs", "count"])
            for dist, mx, count in table:
                writer.writerow([f"{dist:.9f}", f"{mx:.16e}", count])


def run_verification(config: RunConfig) -> tuple:
    run = Runner(config)
    keys = []       # per record: (suite position, instance position)
    try:
        # instance-major, so that the suites of one instance share its
        # contexts and its flow, and nothing later needs what it cached
        for i, inst in enumerate(config.instances):
            clear_caches()
            for s, suite in enumerate(config.suites):
                try:
                    SUITE_FUNCS[suite](run, inst)
                finally:
                    keys += [(s, i)] * (len(run.checks) - len(keys))
    finally:
        # the report is suite-major; a partial report is still a report
        order = sorted(range(len(keys)), key=keys.__getitem__)
        run.checks[:] = [run.checks[j] for j in order]
        report = build_report(run)
        if config.report:
            with open(config.report, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        if config.csv_dir:
            write_csv_tables(run, config.csv_dir)
    return report, run


def print_summary(report: dict, stream=None):
    stream = stream if stream is not None else sys.stdout
    for c in report["checks"]:
        inst = "d{} L{} N{}".format(*c["instance"])
        value = "" if c["value"] is None else f" value={c['value']:.3e}"
        reason = f" ({c['reason']})" if "reason" in c else ""
        print(f"[{c['status']:>7}] {c['check_id']} [{inst}]{value}{reason}",
              file=stream)
    s = report["summary"]
    print(f"{s['total']} checks: {s['pass']} passed, {s['fail']} failed, "
          f"{s['error']} errors, {s['skipped']} skipped", file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="caxial", description="gauge-fixing verification harness")
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--config", help="JSON config file")
    v.add_argument("--dim", type=int)
    v.add_argument("--L", type=int)
    v.add_argument("--levels", type=int)
    v.add_argument("--suite", default="all",
                   help="comma-separated suites, or 'all'")
    v.add_argument("--tol", type=float, help="identity tolerance")
    v.add_argument("--seed", type=int)
    v.add_argument("--report", help="write the JSON report here")
    v.add_argument("--csv-dir", help="export decay tables as CSV here")
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    report, _ = run_verification(config)
    print_summary(report)
    s = report["summary"]
    return 0 if s["fail"] == 0 and s["error"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
