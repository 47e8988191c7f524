"""The block-averaging RG recursion for the Gaussian gauge-field density.

The flow starts from the curl-energy Gaussian on a unit torus with
L**n_levels sites per side.  One step integrates over a fine field with its
block average and per-block path averages fixed, then relabels the coarse
lattice back to unit spacing (values scale by L**((dim-2)/2)); the same
density is also produced in one shot from the fine lattice with the full
hierarchical constraint stack, and the two constructions must agree —
including the multiplicative constants when delta constraints are given
true Dirac semantics.

Counting constants: with b_M = dim * L**(dim*M) bonds and s_M = L**(dim*M)
sites at size M, the step-(k+1) constant is c_{k+1} = (b_N - b_{N-k-1}) -
(s_N - s_{N-k-1}) ... evaluated through the table below; the rescaling
multiplies the density by L**((dim-2)/2 * c_{k+1}), the exponent forced by
the value scaling of the relabeled field (trivial at dim = 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np
import scipy.sparse as sp

from . import averaging as av
from .fields import curl_energy_form, grad_matrix, guarded_torus
from .gauge_ops import get_context, one_shot_constraints
from .gaussian import (AffineSurface, ConstraintFactor, QuadraticDensity,
                       log_partition, minimizer_map, push_constraint,
                       subspace_covariance, surface_min_eig)
from .lattice import Lattice, LatticeSpec, build_lattice, instance_cache


@dataclass(frozen=True)
class FlowCounts:
    """Bond/site counting constants of the flow."""

    dim: int
    L: int
    n_levels: int

    def bonds(self, M: int) -> int:
        return self.dim * self.L ** (self.dim * M)

    def sites(self, M: int) -> int:
        return self.L ** (self.dim * M)

    def c(self, k: int) -> int:
        N = self.n_levels
        return (self.bonds(N) - self.bonds(N - k)) \
            - (self.sites(N) - self.sites(N - k))

    def scale_log(self, k: int) -> float:
        """log of the step-k rescaling constant."""
        return 0.5 * (self.dim - 2) * self.c(k) * log(self.L)


@dataclass
class RGState:
    """Density of the coarse field at one level of the flow."""

    level: int
    lattice: Lattice            # unit-spacing torus carrying the field
    density: QuadraticDensity
    counts: FlowCounts
    provenance: str = "recursion"

    def gauge_residual(self) -> float:
        """Max of form @ grad: the density must not see pure gauges."""
        g = grad_matrix(self.lattice).toarray()
        return float(np.abs(self.density.form @ g).max())


def init_rho0(dim: int, L: int, n_levels: int, source=None) -> RGState:
    """Level-0 state: curl-energy Gaussian, optional linear source term."""
    lat = guarded_torus(dim, L, 0, n_levels)
    density = QuadraticDensity(curl_energy_form(lat), source)
    return RGState(0, lat, density, FlowCounts(dim, L, n_levels))


@instance_cache
def _step_constraints(lattice: Lattice) -> ConstraintFactor:
    """Factor of one blocking step: block average fixed to the coarse
    field, path averages to zero, K = [Q_b; tau] and E = [I; 0]."""
    qb = av.bond_average_matrix(lattice, 1)
    tau = av.path_average_matrix(lattice).matrix
    E = np.vstack([np.eye(qb.shape[0]), np.zeros((tau.shape[0], qb.shape[0]))])
    return ConstraintFactor(sp.vstack([qb, tau]), E)


def rg_step(state: RGState, convention: str = "dirac") -> RGState:
    """One blocking step: integrate out the fine field, relabel to unit
    spacing, and multiply by the counting constant."""
    counts = state.counts
    if state.level >= counts.n_levels:
        raise ValueError("flow already at the last level")
    pushed = push_constraint(state.density, _step_constraints(state.lattice),
                             convention=convention)
    # relabeling to unit spacing multiplies values by L**((dim-2)/2), so
    # the form and linear coefficients divide by its square and itself
    s = float(counts.L) ** ((counts.dim - 2) / 2.0)
    new = QuadraticDensity(
        pushed.form / (s * s), pushed.linear / s,
        pushed.log_const + counts.scale_log(state.level + 1))
    coarse = build_lattice(LatticeSpec(counts.dim, counts.L, 0,
                                       counts.n_levels - state.level - 1))
    return RGState(state.level + 1, coarse, new, counts, state.provenance)


def final_step(state: RGState, convention: str = "dirac") -> float:
    """Last step with the block average replaced by the winding average;
    returns the log of the resulting constant."""
    counts = state.counts
    if state.level != counts.n_levels - 1:
        raise ValueError("final step applies at the next-to-last level")
    surface = AffineSurface.from_constraints(
        _winding_constraints(state.lattice))
    return log_partition(state.density, surface, convention) \
        + counts.scale_log(counts.n_levels)


@instance_cache
def _winding_constraints(lattice: Lattice) -> ConstraintFactor:
    """Factor of the last step: winding and path averages fixed to zero."""
    return ConstraintFactor(sp.vstack([av.toron_average_matrix(lattice),
                                       av.path_average_matrix(lattice).matrix]))


@instance_cache
def _one_shot_winding_constraints(fine: Lattice,
                                  n_levels: int) -> ConstraintFactor:
    """Factor of the one-shot last level: winding averages of the fully
    blocked field and the hierarchical path averages fixed to zero."""
    return ConstraintFactor(sp.vstack([
        av.toron_average_full_matrix(fine, n_levels),
        av.axial_constraint_stack(fine, n_levels).matrix]))


def one_shot_state(dim: int, L: int, n_levels: int, k: int,
                   convention: str = "dirac", source=None) -> RGState:
    """The level-k density in one constrained integration over the fine
    field at spacing L**-k with the full hierarchical stack."""
    if not 1 <= k <= n_levels:
        raise ValueError("need 1 <= k <= n_levels")
    fine = guarded_torus(dim, L, k, n_levels - k)
    linear = None
    if source is not None:
        # the level-0 functional reads the fine field in level-0 values
        linear = np.asarray(source) / float(L) ** (k * (dim - 2) / 2.0)
    density = QuadraticDensity(curl_energy_form(fine), linear)
    pushed = push_constraint(density, one_shot_constraints(fine, k),
                             convention=convention)
    counts = FlowCounts(dim, L, n_levels)
    return RGState(k, build_lattice(LatticeSpec(dim, L, 0, n_levels - k)),
                   pushed, counts, "one-shot")


def one_shot_final(dim: int, L: int, n_levels: int,
                   convention: str = "dirac") -> float:
    """One-shot version of the last level: winding averages of the fully
    blocked field are fixed to zero; returns the log constant."""
    fine = guarded_torus(dim, L, n_levels, 0)
    density = QuadraticDensity(curl_energy_form(fine))
    surface = AffineSurface.from_constraints(
        _one_shot_winding_constraints(fine, n_levels))
    return log_partition(density, surface, convention)


def flow_states(dim: int, L: int, n_levels: int, source=None,
                convention: str = "dirac"):
    """All states of the iterated flow, level 0 .. n_levels."""
    states = [init_rho0(dim, L, n_levels, source)]
    while states[-1].level < n_levels:
        states.append(rg_step(states[-1], convention))
    return states


# -- constants of the flow ---------------------------------------------------

@dataclass
class FlowConstants:
    counts: FlowCounts
    log_z: dict          # level -> log of the one-shot normalization
    log_zf: dict         # level -> log of the fluctuation integral
    recursion_residuals: dict
    min_eigs: dict       # level -> smallest eigenvalue on the surface


def fluctuation_surface(lattice: Lattice) -> AffineSurface:
    return AffineSurface.from_constraints(_step_constraints(lattice))


def z_constants(dim: int, L: int, n_levels: int,
                convention: str = "dirac") -> FlowConstants:
    """Normalization constants and the step recursion residuals.

    log_z[k] integrates the curl Gaussian over the level-k homogeneous
    constraint surface on the fine lattice; log_zf[k] integrates the
    effective-form Gaussian over one blocking level of the unit lattice.
    The recursion log_z[k+1] = log_z[k] + log_zf[k] + scale_log(k+1) holds
    exactly under the Dirac measure convention.
    """
    counts = FlowCounts(dim, L, n_levels)
    log_z, log_zf, min_eigs = {}, {}, {}
    for k in range(1, n_levels + 1):
        fine = guarded_torus(dim, L, k, n_levels - k)
        density = QuadraticDensity(curl_energy_form(fine))
        surface = AffineSurface.from_constraints(
            one_shot_constraints(fine, k))
        min_eigs[k] = surface_min_eig(density, surface)
        log_z[k] = log_partition(density, surface, convention)
    for k in range(0, n_levels):
        ctx = get_context(dim, L, n_levels, k)
        density = QuadraticDensity(ctx.delta)
        log_zf[k] = log_partition(density,
                                  fluctuation_surface(ctx.unit), convention)
    residuals = {}
    for k in range(1, n_levels):
        residuals[k] = abs(log_z[k + 1] - log_z[k] - log_zf[k]
                           - counts.scale_log(k + 1))
    residuals[0] = abs(log_z[1] - log_zf[0] - counts.scale_log(1))
    return FlowConstants(counts, log_z, log_zf, residuals, min_eigs)


# -- identities along the flow ----------------------------------------------

def coarse_minimizer_map(dim: int, L: int, n_levels: int, k: int) -> np.ndarray:
    """Minimizer of the level-k effective form with the block average fixed
    to the relabeled next-level field (unit bonds <- next-level bonds)."""
    ctx = get_context(dim, L, n_levels, k)
    step = _step_constraints(ctx.unit)
    s = float(L) ** ((dim - 2) / 2.0)
    return minimizer_map(ctx.delta, step, s * step.fiber)


def minimizer_composition_residual(dim: int, L: int, n_levels: int,
                                   k: int) -> float:
    """Relative residual of: fine minimizer of the coarse minimizer of the
    relabeled field  ==  relabeled next-level fine minimizer."""
    ctx_k = get_context(dim, L, n_levels, k)
    ctx_k1 = get_context(dim, L, n_levels, k + 1)
    s = float(L) ** ((dim - 2) / 2.0)
    lhs = ctx_k.axial_minimizer @ coarse_minimizer_map(dim, L, n_levels, k)
    rhs = s * ctx_k1.axial_minimizer
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))


@dataclass
class FluctuationStep:
    """Transport of a linear or quadratic functional through one step."""

    mean_shift: np.ndarray      # linear case: the coefficient on the
                                # relabeled coarse field
    trace_term: float           # quadratic case: the constant added
    cross_residual: float       # direct vs square-root parametrization


def fluctuation_step(dim: int, L: int, n_levels: int, k: int,
                     functional) -> FluctuationStep:
    """Transport F(v) = <v, J> or F(v) = <v, M v> through the level-k
    fluctuation integral.

    The fluctuation Gaussian is centered, so a linear functional only sees
    the conditional mean of the fine field; a quadratic one adds the trace
    of M against the transported fluctuation covariance.  The covariance is
    also assembled through its symmetric square root in the whitened
    parametrization and the two agree for gauge-invariant functionals.
    """
    ctx = get_context(dim, L, n_levels, k)
    s = float(L) ** ((dim - 2) / 2.0)
    density = QuadraticDensity(ctx.delta)
    surface = fluctuation_surface(ctx.unit)
    cov = subspace_covariance(density, surface)
    h_ax = ctx.axial_minimizer
    functional = np.asarray(functional, dtype=float)
    if functional.ndim == 1:
        # <A_k, J> -> <mean(A_k | A_{k+1}), J>, relabeled; cross-checked
        # against the linear term produced by the fiber integration
        shift = coarse_minimizer_map(dim, L, n_levels, k).T \
            @ functional / (s * s)
        pushed = push_constraint(
            QuadraticDensity(ctx.delta, functional),
            _step_constraints(ctx.unit), convention="dirac")
        cross = float(np.linalg.norm(shift - pushed.linear / s)
                      / max(np.linalg.norm(shift), 1e-300))
        return FluctuationStep(shift, 0.0, cross)
    M = functional
    trace = float(np.trace(M @ h_ax @ cov @ h_ax.T))
    # whitened form: fluctuation = (Feynman minimizer) C sqrt(C_k) W
    h_fey = ctx.feynman_minimizer()
    root = ctx.cov_sqrt_spectral()
    carrier = h_fey @ ctx.fluct_basis @ root
    trace_w = float(np.trace(M @ carrier @ carrier.T))
    return FluctuationStep(None, trace,
                           abs(trace - trace_w) / max(abs(trace), 1e-300))
