"""Seeded desk-scale experiment runners.

Two experiment shapes: budget filling with an added independent
secret channel, and budget filling through a calibrated Gaussian-copula
coupling of two noise mechanisms.  Each grid point calibrates every
mechanism tightly, attempts the inverse-composition design, fills the
remaining budget subject to the direct divergence check, and audits the
result against a single mechanism calibrated to the same budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import ic
from .audit import compare_protocol, roc_bound_check
from .composition import composed_joint
from .copula import GaussianCopulaSpec, LaplaceMarginal, block_grid, mix_block_law
from .divergence import monotone_root, worst_pair
from .model import adjacency_labels, effective_kernel, join_per_secret
from .synth import (
    _calibrate_noise_scale,
    binned_laplace_kernel,
    calibrate_alpha_fill,
    calibrate_gaussian_mechanism,
    mixing_world,
)

INDEPENDENT_EPS_G = (0.25, 0.5, 1.5, 3.0, 5.0)
INDEPENDENT_EPS_I = (0.05, 0.1, 0.3, 0.6, 1.0)
COPULA_EPS_G = (0.4, 0.6, 1.0, 2.0, 4.0, 6.0)
COPULA_EPS_I = (0.05, 0.1, 0.18, 0.3, 0.6, 1.0)
DEFAULT_DELTA = 0.02
DEFAULT_RHO = 0.5
LAM = 0.005     # the mixing of the experiments' world (``synth.mixing_world``)
MECH_BINS = 7   # output bins of each calibrated noise mechanism

# query patterns over the four synthetic datasets; every pattern separates
# the first two datasets, which dominate the two secrets at small mixing
_QUERY_MAPS = (
    (0.0, 1.0, 0.0, 1.0),
    (0.0, 1.0, 1.0, 0.0),
    (0.0, 0.5, 1.0, 0.25),
    (0.0, 1.0, 0.25, 0.75),
)


@dataclass(frozen=True)
class ExperimentRow:
    eps_g: float
    eps_i: float
    delta_g: float
    auc_composed: float
    auc_single: float
    gap: float
    ic_flag: str
    fill_parameter: float
    composed_delta: float
    single_delta: float
    roc_violation_composed: float
    roc_violation_single: float


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    seed: int
    rows: list = field(default_factory=list)


def _ic_attempt(world, mechs, eps_g, delta_g) -> str:
    """Run the design solver when the constraint set can be nonempty."""
    tau_g = ic.tau_of_epsilon(eps_g, world)
    if not ic.pi_set_nonempty(tau_g, delta_g):
        return "pi-empty"
    problem = ic.IcProblem(world=world, mechs=mechs, delta_g=delta_g, tau_g=tau_g, alpha_size=3)
    return "certified" if ic.solve_task1(problem).certified else "uncertified"


def run_independent_experiment(
    seed: int = 0,
    eps_gs=INDEPENDENT_EPS_G,
    eps_is=INDEPENDENT_EPS_I,
    delta: float = DEFAULT_DELTA,
) -> ExperimentResult:
    """Four calibrated noise mechanisms plus an added secret channel that
    fills the remaining budget under the direct check."""
    if len(eps_gs) != len(eps_is):
        raise ValueError("eps_g and eps_i grids must have equal length")
    world = mixing_world(LAM)
    rows = []
    for eps_g, eps_i in zip(eps_gs, eps_is):
        mechs = [
            calibrate_gaussian_mechanism(world, fmap, eps_i, delta, bins=MECH_BINS, name=f"m{i}")
            for i, fmap in enumerate(_QUERY_MAPS)
        ]
        base_law = composed_joint(world, mechs).matrix
        flag = _ic_attempt(world, mechs, eps_g, delta)
        alpha, sigma = calibrate_alpha_fill(
            world, base_law, eta=(0.0, 1.0), eps_g=eps_g, delta_g=delta, bins=9
        )
        if math.isinf(sigma):
            law = base_law
            flag = flag + "+fill-infeasible"
        else:
            law = join_per_secret(base_law, alpha)
        rows.append(_audit_row(world, law, eps_g, eps_i, delta, flag, sigma))
    return ExperimentResult(name="independent", seed=seed, rows=rows)


def run_copula_experiment(
    seed: int = 0,
    eps_gs=COPULA_EPS_G,
    eps_is=COPULA_EPS_I,
    delta: float = DEFAULT_DELTA,
    block_bins: int = 17,
) -> ExperimentResult:
    """Two Laplace queries coupled by a calibrated Gaussian copula, three
    further calibrated noise mechanisms, audited against a single one."""
    if len(eps_gs) != len(eps_is):
        raise ValueError("eps_g and eps_i grids must have equal length")
    world = mixing_world(LAM)
    w = 2.0 * math.log(2.0 / delta)
    eta = {world.secrets[0]: 0.0, world.secrets[1]: 1.0}
    rows = []
    for j, (eps_g, eps_i) in enumerate(zip(eps_gs, eps_is)):
        f1, f2 = _QUERY_MAPS[0], _QUERY_MAPS[1]
        xi1 = LaplaceMarginal(_calibrate_noise_scale(world, binned_laplace_kernel, f1, eps_i, delta,
                                                     MECH_BINS * 3))
        xi2 = LaplaceMarginal(_calibrate_noise_scale(world, binned_laplace_kernel, f2, eps_i, delta,
                                                     MECH_BINS * 3))
        others = [
            calibrate_gaussian_mechanism(world, fmap, eps_i, delta, bins=MECH_BINS, name=f"m{i}")
            for i, fmap in enumerate(_QUERY_MAPS[2:])
        ]
        rest_law = composed_joint(world, others).matrix
        _, _, terms = block_grid(xi1, xi2, world, (f1, f2), bins=block_bins)

        def law_at(eps_c):
            spec = GaussianCopulaSpec(
                rho=DEFAULT_RHO, eta=eta, eps_c=eps_c, delta_c=delta, w=w, xi1=xi1, xi2=xi2,
                adjacency_labels=adjacency_labels(world),
            )
            block = mix_block_law(spec, world, terms)
            return join_per_secret(block, rest_law)

        def overshoot(eps_c):
            return worst_pair(world, law_at(eps_c), eps=eps_g).value - delta

        lo, hi = 1e-4, 64.0
        v_lo = overshoot(lo)
        if v_lo > 0.0:
            law, eps_c, flag = law_at(lo), math.inf, "fill-infeasible"
        else:
            v_hi = overshoot(hi)
            if v_hi <= 0.0:
                lo = hi
            else:
                lo, _ = monotone_root(overshoot, lo, hi, v_lo, v_hi, above=lambda v: v > 0.0,
                                      tol=1e-9)
            eps_c, law, flag = lo, law_at(lo), "coupling-filled"
        rows.append(_audit_row(world, law, eps_g, eps_i, delta, flag, eps_c))
    return ExperimentResult(name="copula", seed=seed, rows=rows)


def _audit_row(world, law, eps_g, eps_i, delta, flag, fill_param) -> ExperimentRow:
    """``law`` against one Gaussian query mechanism calibrated tight at the full budget."""
    single = calibrate_gaussian_mechanism(world, _QUERY_MAPS[3], eps_g, delta, name="single")
    (row,) = compare_protocol(world, law, effective_kernel(world, single), [(eps_g, delta)])
    return ExperimentRow(
        eps_g=eps_g,
        eps_i=eps_i,
        delta_g=delta,
        auc_composed=row["auc_composed"],
        auc_single=row["auc_single"],
        gap=row["gap"],
        ic_flag=flag,
        fill_parameter=fill_param,
        composed_delta=row["delta_composed"],
        single_delta=row["delta_single"],
        roc_violation_composed=roc_bound_check(row["roc_composed"], eps_g, delta),
        roc_violation_single=roc_bound_check(row["roc_single"], eps_g, delta),
    )
