"""The block-averaging RG recursion for the Gaussian gauge-field density.

The flow starts from the curl-energy Gaussian on a unit torus with
L**n_levels sites per side.  One step integrates over a fine field with its
block average and per-block path averages fixed, then relabels the coarse
lattice back to unit spacing (values scale by L**((dim-2)/2)); the same
density is also produced in one shot from the fine lattice with the full
hierarchical constraint stack, and the two constructions must agree,
multiplicative constants included: every delta constraint is integrated
under the Dirac measure of `gaussian`, the one under which the constants
close.

Counting constants: with b_M = dim * L**(dim*M) bonds and s_M = L**(dim*M)
sites at size M, the step-(k+1) constant is c_{k+1} = (b_N - b_{N-k-1}) -
(s_N - s_{N-k-1}), evaluated by `FlowCounts.c`; the rescaling
multiplies the density by L**((dim-2)/2 * c_{k+1}), the exponent forced by
the value scaling of the relabeled field (trivial at dim = 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from . import averaging as av
from . import csr
from .fields import curl_energy_form, grad_matrix
from .gauge_ops import get_context, one_shot_constraints
from .gaussian import AffineSurface, QuadraticDensity, SurfaceGaussian
from .lattice import Lattice, fine_torus, instance_cache, shape_cache


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
    """Density of the coarse field at one level of the flow, and below the
    last level the Gaussian of its step: the density's form on the surface
    of one blocking step of its lattice."""

    level: int
    lattice: Lattice            # unit-spacing torus carrying the field
    density: QuadraticDensity
    counts: FlowCounts
    step: SurfaceGaussian | None

    def gauge_residual(self) -> float:
        """Max of form @ grad: the density must not see pure gauges."""
        grad = grad_matrix(self.lattice)
        return float(np.abs(self.density.form @ grad).max())


def init_rho0(dim: int, L: int, n_levels: int) -> RGState:
    """Level-0 state: the curl-energy Gaussian, the axial density of the
    level-0 context, with that context's step Gaussian (both shared)."""
    ctx = get_context(dim, L, n_levels, 0)
    return RGState(0, ctx.fine, ctx.axial_density,
                   FlowCounts(dim, L, n_levels), ctx.step)


def rg_step(state: RGState) -> RGState:
    """One blocking step: integrate out the fine field, relabel to unit
    spacing, and multiply by the counting constant."""
    counts = state.counts
    if state.level >= counts.n_levels:
        raise ValueError("flow already at the last level")
    d, pushed = state.density, state.step.push
    # relabeling to unit spacing multiplies values by L**((dim-2)/2), so
    # the form divides by its square
    s = float(counts.L) ** ((counts.dim - 2) / 2.0)
    new = QuadraticDensity(
        pushed.form / (s * s),
        d.log_const + pushed.log_const + counts.scale_log(state.level + 1))
    level = state.level + 1
    coarse = fine_torus(counts.dim, counts.L, 0, counts.n_levels - level)
    step = None if level == counts.n_levels else SurfaceGaussian(
        new.form, one_shot_constraints(coarse, 1))
    return RGState(level, coarse, new, counts, step)


def final_step(state: RGState) -> float:
    """Last step with the block average replaced by the winding average;
    returns the log of the resulting constant."""
    counts = state.counts
    if state.level != counts.n_levels - 1:
        raise ValueError("final step applies at the next-to-last level")
    d, surface = state.density, _one_shot_winding_constraints(state.lattice, 1)
    return d.log_const + SurfaceGaussian(d.form, surface).log_partition \
        + counts.scale_log(counts.n_levels)


@shape_cache
def _one_shot_winding_constraints(fine: Lattice,
                                  n_levels: int) -> AffineSurface:
    """The one-shot last level: winding averages of the fully blocked field
    and the hierarchical path averages fixed to zero.  At n_levels = 1 it
    is the surface of the iterated flow's last step."""
    return AffineSurface(csr.vstack([
        av.toron_average_full_matrix(fine, n_levels),
        av.axial_constraint_stack(fine, n_levels).matrix]))


def one_shot_state(dim: int, L: int, n_levels: int, k: int) -> RGState:
    """The level-k density in one constrained integration over the fine
    field at spacing L**-k with the full hierarchical stack: the axial
    density of the level-k context (read-only arrays)."""
    if not 1 <= k <= n_levels:
        raise ValueError("need 1 <= k <= n_levels")
    ctx = get_context(dim, L, n_levels, k)
    return RGState(k, ctx.unit, ctx.axial_density,
                   FlowCounts(dim, L, n_levels), None)


def one_shot_final(dim: int, L: int, n_levels: int) -> float:
    """One-shot version of the last level: winding averages of the fully
    blocked field are fixed to zero; returns the log constant."""
    fine = fine_torus(dim, L, n_levels, 0)
    surface = _one_shot_winding_constraints(fine, n_levels)
    return SurfaceGaussian(curl_energy_form(fine), surface).log_partition


@instance_cache
def flow_states(dim: int, L: int, n_levels: int) -> tuple:
    """All states of the iterated flow, level 0 .. n_levels.  Shared; the
    forms of their densities are read-only, as every density's is."""
    states = [init_rho0(dim, L, n_levels)]
    while states[-1].level < n_levels:
        states.append(rg_step(states[-1]))
    return tuple(states)


# -- constants of the flow ---------------------------------------------------

@dataclass
class FlowConstants:
    log_z: dict          # level -> log of the one-shot normalization
    log_zf: dict         # level -> log of the fluctuation integral
    recursion_residuals: dict


def z_constants(dim: int, L: int, n_levels: int) -> FlowConstants:
    """Normalization constants and the step recursion residuals.

    log_z[k] integrates the curl Gaussian over the level-k homogeneous
    constraint surface on the fine lattice: it is the constant of the
    one-shot density at level k.  log_zf[k] integrates the effective-form
    Gaussian over one blocking level of the unit lattice.  The recursion
    log_z[k+1] = log_z[k] + log_zf[k] + scale_log(k+1) holds exactly
    under the Dirac measure.
    """
    counts = FlowCounts(dim, L, n_levels)
    log_z = {k: one_shot_state(dim, L, n_levels, k).density.log_const
             for k in range(1, n_levels + 1)}
    log_zf = {k: get_context(dim, L, n_levels, k).step.log_partition
              for k in range(0, n_levels)}
    residuals = {}
    for k in range(1, n_levels):
        residuals[k] = abs(log_z[k + 1] - log_z[k] - log_zf[k]
                           - counts.scale_log(k + 1))
    residuals[0] = abs(log_z[1] - log_zf[0] - counts.scale_log(1))
    return FlowConstants(log_z, log_zf, residuals)


# -- identities along the flow ----------------------------------------------

def coarse_minimizer_map(dim: int, L: int, n_levels: int, k: int) -> np.ndarray:
    """Minimizer of the level-k effective form with the block average fixed
    to the relabeled next-level field (unit bonds <- next-level bonds).
    The relabeling scales the field by s, and the minimizer is linear in it."""
    s = float(L) ** ((dim - 2) / 2.0)
    return s * get_context(dim, L, n_levels, k).step.minimizer


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
    """Transport of a quadratic functional through one step."""

    trace_term: float           # the constant added
    cross_residual: float       # direct vs square-root parametrization


def fluctuation_step(dim: int, L: int, n_levels: int,
                     M: np.ndarray) -> FluctuationStep:
    """Transport F(v) = <v, M v> through the first fluctuation integral,
    from level 0 (unit bonds of the finest torus) to level 1.

    The fluctuation Gaussian is centered, so the functional adds the trace
    of M against the fluctuation covariance.  The covariance is also
    assembled through its symmetric square root in the whitened
    parametrization and the two agree for gauge-invariant functionals.
    At level 0 the fine field is the unit field, so neither needs a
    minimizer to reach it.
    """
    ctx = get_context(dim, L, n_levels, 0)
    # tr(M X) for symmetric X, without the product M X
    trace = float(np.sum(M * ctx.step.covariance))
    # whitened form: fluctuation = C sqrt(C_0) W, so X = carrier carrier^T
    carrier = ctx.fluct_basis @ ctx.cov_sqrt_spectral()
    trace_w = float(np.sum((M @ carrier) * carrier))
    return FluctuationStep(trace,
                           abs(trace - trace_w) / max(abs(trace), 1e-300))
