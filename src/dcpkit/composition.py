"""Composition of mechanisms through the shared dataset.

Builds the joint output distribution per secret, computes the naive
(dependence-ignoring), true, and conservative epsilon/delta bounds for the
composition, checks basic composition, and runs the informativeness
comparisons (trade-off dominance and expected cross-entropy loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import PROB_ATOL
from .divergence import DistPair, hockey_stick, optimal_epsilon, tradeoff_curve, worst_pair
from .model import DependenceGroup, MechanismKernel, World, composed_law, effective_kernel, lay_out, mix_kernel
from .pld import LossSum, _decompose, convolve, epsilon_for_delta, pld_from_pair


@dataclass(frozen=True)
class ComposedJoint:
    """Joint output distribution b(.|s) over the product alphabet.

    ``matrix`` rows are secrets; columns enumerate the product alphabet in C
    order over the per-mechanism output indices given by ``dims``.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def rows(self, s: int) -> np.ndarray:
        return self.matrix[s]

    def pair(self, s0: int, s1: int) -> DistPair:
        return DistPair(self.matrix[s0], self.matrix[s1])


def composed_joint(
    world: World, mechs: list[MechanismKernel], dependence: list[DependenceGroup] = ()
) -> ComposedJoint:
    """Mixture over datasets of the per-dataset product (or grouped) kernels."""
    return ComposedJoint(matrix=composed_law(world, mechs, dependence),
                         dims=tuple(m.n_outputs for m in mechs))


class _Laws(NamedTuple):
    """The per-secret laws of one composition, built once per call."""

    joint: np.ndarray                                   # the composed joint
    effs: list[np.ndarray]                              # each mechanism's effective kernel
    groups: list[tuple[tuple[int, ...], np.ndarray]]    # each group's members and effective joint


def _laws(world: World, mechs: list[MechanismKernel], dependence: list[DependenceGroup]) -> _Laws:
    return _Laws(
        composed_joint(world, mechs, dependence).matrix,
        _effective_kernels(world, mechs),
        [(g.members, mix_kernel(world, g.joint_kernel)) for g in dependence],
    )


def _effective_kernels(world: World, mechs: list[MechanismKernel]) -> list[np.ndarray]:
    return [effective_kernel(world, mech).matrix for mech in mechs]


def _product_law(effs: list[np.ndarray]) -> np.ndarray:
    """Per-secret product of the effective marginals (rows = secrets)."""
    return lay_out([((i,), eff) for i, eff in enumerate(effs)], tuple(eff.shape[1] for eff in effs))


def product_pair(world: World, mechs: list[MechanismKernel], s0: int, s1: int) -> DistPair:
    """Product of the effective marginals: the dependence-ignoring joint."""
    law = _product_law(_effective_kernels(world, mechs))
    return DistPair(law[s0], law[s1])


def true_opt(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup],
    delta_g: float,
    per_pair: bool = False,
):
    """Tightest epsilon of the actual composition at delta_g (max over adjacency)."""
    worst = worst_pair(world, composed_joint(world, mechs, dependence).matrix, delta=delta_g)
    return (worst.value, worst.values) if per_pair else worst.value


def underline_opt(
    world: World,
    mechs: list[MechanismKernel],
    delta_g: float,
    per_pair: bool = False,
):
    """Dependence-ignoring epsilon: optimal composition of the marginals alone."""
    worst = worst_pair(world, _product_law(_effective_kernels(world, mechs)), delta=delta_g)
    return (worst.value, worst.values) if per_pair else worst.value


def _overline_loss(laws: _Laws, s0: int, s1: int) -> LossSum:
    """The pushed-forward copula term plus the convolved marginal PLDs.

    The copula term (world + dependence losses) only pins down the loss
    variable under s0, so its PLD is taken as that pushforward.  The
    marginals' convolution holds at most one atom per outcome of the
    product alphabet; the copula term is added as a second independent
    factor and never convolved in.  The result is the accounting object
    behind the conservative bound.
    """
    copula = _decompose(laws.joint, laws.effs, laws.groups, s0, s1).world_pld()
    plds = [pld_from_pair(DistPair(eff[s0], eff[s1])) for eff in laws.effs]
    marginals = plds[0]
    for pld in plds[1:]:
        marginals = convolve(marginals, pld)
    return LossSum(copula, marginals)


def overline_opt(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup],
    delta_g: float,
    per_pair: bool = False,
):
    """Conservative epsilon: copula loss treated as one extra independent mechanism."""
    laws = _laws(world, mechs, dependence)
    vals = {}
    for (s0, s1) in sorted(world.adjacency):
        vals[(s0, s1)] = _overline_loss(laws, s0, s1).epsilon(delta_g)
    worst = max(vals.values())
    return (worst, vals) if per_pair else worst


@dataclass(frozen=True)
class CompositionReport:
    """Per adjacent pair: the three epsilon bounds per delta_g and the three
    delta values per eps_g, plus the basic-composition verdict."""

    opt_rows: list = field(default_factory=list)  # (s0, s1, delta_g, under, true, over)
    dt_rows: list = field(default_factory=list)   # (s0, s1, eps_g, under, true, over)
    basic_holds: bool = True
    basic_witness: tuple | None = None

    def ordering_ok(self, slack: float = 1e-9) -> bool:
        for (_, _, _, under, true, over) in self.opt_rows:
            if under > true + slack or true > over + slack:
                return False
        for (_, _, _, under, true, over) in self.dt_rows:
            if under > true + slack or true > over + slack:
                return False
        return True


def composition_report(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup],
    delta_gs: list[float],
    eps_gs: list[float],
) -> CompositionReport:
    laws = _laws(world, mechs, dependence)
    prod_law = _product_law(laws.effs)
    opt_rows, dt_rows = [], []
    for (s0, s1) in sorted(world.adjacency):
        joint_pair = DistPair(laws.joint[s0], laws.joint[s1])
        prod = DistPair(prod_law[s0], prod_law[s1])
        over = _overline_loss(laws, s0, s1)
        for dg in delta_gs:
            opt_rows.append(
                (s0, s1, dg,
                 optimal_epsilon(prod, dg),
                 optimal_epsilon(joint_pair, dg),
                 over.epsilon(dg))
            )
        for eg in eps_gs:
            dt_rows.append(
                (s0, s1, eg,
                 hockey_stick(prod, eg),
                 hockey_stick(joint_pair, eg),
                 over.delta(eg))
            )
    basic = _basic_check(world, laws.effs, lambda: laws.joint, None, 1.0)
    return CompositionReport(
        opt_rows=opt_rows,
        dt_rows=dt_rows,
        basic_holds=basic["holds"],
        basic_witness=basic["witness"],
    )


def basic_composition_check(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup] = (),
    delta_is: list[float] | None = None,
    eps_budget: float = 1.0,
) -> dict:
    """Does the composition satisfy (sum eps_i, sum delta_i)?

    Per-mechanism budgets are the tight epsilons at the caller's delta_i
    grid; when no grid is given, each mechanism gets the tight delta at an
    equal split of ``eps_budget``.  The verdict evaluates the composed
    hockey-stick at the summed epsilon against the summed delta on every
    adjacent pair.
    """
    effs = _effective_kernels(world, mechs)
    return _basic_check(world, effs, lambda: composed_joint(world, mechs, dependence).matrix,
                        delta_is, eps_budget)


def _basic_check(world: World, effs: list[np.ndarray], joint: Callable[[], np.ndarray],
                 delta_is: list[float] | None, eps_budget: float) -> dict:
    """``basic_composition_check`` on the effective kernels ``effs``; ``joint``
    gives the composed joint, asked for only when the summed epsilon is finite."""
    eps_list, delta_list = [], []
    for i, eff in enumerate(effs):
        if delta_is is not None:
            d_i = delta_is[i]
            e_i = worst_pair(world, eff, delta=d_i).value
        else:
            e_i = eps_budget / len(effs)
            d_i = worst_pair(world, eff, eps=e_i).value
        eps_list.append(e_i)
        delta_list.append(d_i)
    eps_sum, delta_sum = sum(eps_list), sum(delta_list)
    if math.isinf(eps_sum):
        return {"holds": True, "witness": None, "eps_sum": eps_sum, "delta_sum": delta_sum,
                "per_mechanism": list(zip(eps_list, delta_list))}
    worst = worst_pair(world, joint(), eps=eps_sum)
    return {
        "holds": worst.value <= delta_sum + PROB_ATOL,
        "witness": (worst.pair, eps_sum, delta_sum, worst.value),
        "eps_sum": eps_sum,
        "delta_sum": delta_sum,
        "composed_delta": worst.value,
        "per_mechanism": list(zip(eps_list, delta_list)),
    }


def dominating_pair(eps: float, delta: float) -> DistPair:
    """Canonical 4-outcome pair achieving (eps, delta) with equality."""
    if not eps >= 0 or not 0 <= delta <= 1:
        raise ValueError(f"need eps >= 0 and delta in [0, 1], got ({eps}, {delta})")
    e = math.exp(eps)
    p = np.array([delta, (1 - delta) * e / (1 + e), (1 - delta) / (1 + e), 0.0])
    q = np.array([0.0, (1 - delta) / (1 + e), (1 - delta) * e / (1 + e), delta])
    return DistPair(p, q)


def dp_optcomp(params: list[tuple[float, float]], delta_g: float) -> float:
    """Optimal composition of (eps_i, delta_i) budgets at delta_g.

    Exact for the worst case: convolves the dominating-pair PLDs and inverts
    the privacy profile.  Returns ``math.inf`` when delta_g is below the
    unavoidable combined infinity mass.
    """
    if not params:
        raise ValueError("need at least one (eps, delta) pair")
    pld = pld_from_pair(dominating_pair(*params[0]))
    for eps_i, delta_i in params[1:]:
        pld = convolve(pld, pld_from_pair(dominating_pair(eps_i, delta_i)))
    return epsilon_for_delta(pld, delta_g)


def tradeoff_dominance(
    world: World, mechs: list[MechanismKernel], dependence: list[DependenceGroup] = ()
) -> dict:
    """Compare the composed trade-off curve against the product curve.

    Evaluates both type-II error curves on the merged grid of type-I
    levels; ``max_violation`` is the largest amount the composed curve sits
    above the product curve (the composed setup being *less* informative
    there, which redundant mechanisms do produce), ``max_gap`` the largest
    amount it sits below.
    """
    cj = composed_joint(world, mechs, dependence)
    prod_law = _product_law(_effective_kernels(world, mechs))
    worst_violation, worst_gap, worst_at = -math.inf, 0.0, None
    for (s0, s1) in sorted(world.adjacency):
        joint_curve = tradeoff_curve(cj.pair(s0, s1))
        prod_curve = tradeoff_curve(DistPair(prod_law[s0], prod_law[s1]))
        grid = np.union1d(joint_curve.alphas, prod_curve.alphas)
        diff = joint_curve.beta(grid) - prod_curve.beta(grid)
        violation = float(diff.max())
        gap = float(-diff.min())
        if violation > worst_violation:
            worst_violation, worst_at = violation, (s0, s1)
        worst_gap = max(worst_gap, gap)
    return {"max_violation": worst_violation, "max_gap": worst_gap, "worst_pair": worst_at}


def cel_compare(
    world: World, mechs: list[MechanismKernel], dependence: list[DependenceGroup] = ()
) -> dict:
    """Expected cross-entropy loss of the joint-aware vs product posteriors.

    Both posteriors are scored under the true composed law; the joint-aware
    inference can never do worse, and the gap is the KL divergence between
    the two posterior families.
    """
    cj = composed_joint(world, mechs, dependence)
    prior = world.marginal_secret
    b = cj.matrix                      # secrets x outcomes, true law
    prod = _product_law(_effective_kernels(world, mechs))
    # posteriors: columns normalized over secrets
    w_joint = b * prior[:, None]
    w_prod = prod * prior[:, None]
    marg_joint = w_joint.sum(axis=0)
    marg_prod = w_prod.sum(axis=0)
    cel_joint = 0.0
    cel_prod = 0.0
    for s in range(len(world.secrets)):
        mass = w_joint[s]  # true weight of (s, outcome)
        live = mass > 0.0
        post_joint = w_joint[s, live] / marg_joint[live]
        post_prod = w_prod[s, live] / marg_prod[live]
        cel_joint -= float((mass[live] * np.log(post_joint)).sum())
        cel_prod -= float((mass[live] * np.log(post_prod)).sum())
    return {"cel_joint": cel_joint, "cel_product": cel_prod}
