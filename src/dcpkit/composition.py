"""Composition of mechanisms through the shared dataset.

Builds the joint output distribution per secret, computes the naive
(dependence-ignoring), true, and conservative epsilon/delta bounds for the
composition, checks basic composition, and runs the informativeness
comparisons (trade-off dominance and expected cross-entropy loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .config import PROB_ATOL
from .divergence import DistPair, hockey_stick, optimal_epsilon, tradeoff_curve, worst_pair
from .model import DependenceGroup, MechanismKernel, World, effective_kernel
from .pld import LossSum, convolve, decompose_plrv, epsilon_for_delta, pld_from_pair


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


def _per_dataset_joint(
    mechs: list[MechanismKernel], dependence: list[DependenceGroup], dims: tuple[int, ...]
) -> np.ndarray:
    """Joint kernel over the product alphabet per dataset (rows datasets)."""
    n_datasets = mechs[0].kernel.shape[0]
    grouped = set()
    for g in dependence:
        grouped.update(g.members)
    full = np.ones((n_datasets,) + dims)
    for i, mech in enumerate(mechs):
        if i in grouped:
            continue
        shape = [n_datasets] + [1] * len(dims)
        shape[1 + i] = dims[i]
        full = full * mech.kernel.reshape(shape)
    for g in dependence:
        gdims = tuple(dims[i] for i in g.members)
        cube = g.joint_kernel.reshape((n_datasets,) + gdims)
        # reorder the group's axes by mechanism index, then broadcast onto
        # the full tensor with singleton axes for non-members
        order = sorted(range(len(g.members)), key=lambda pos: g.members[pos])
        src = np.transpose(cube, axes=[0] + [1 + o for o in order])
        view_shape = [n_datasets] + [1] * len(dims)
        for i in sorted(g.members):
            view_shape[1 + i] = dims[i]
        full = full * src.reshape(view_shape)
    return full.reshape(n_datasets, -1)


def composed_joint(
    world: World, mechs: list[MechanismKernel], dependence: list[DependenceGroup] = ()
) -> ComposedJoint:
    """Mixture over datasets of the per-dataset product (or grouped) kernels."""
    if not mechs:
        raise ValueError("need at least one mechanism")
    dims = tuple(m.n_outputs for m in mechs)
    size = int(np.prod(dims))
    if size > config.OUTCOME_CAP:
        raise ValueError(f"product outcome space {size} exceeds cap {config.OUTCOME_CAP}")
    for m in mechs:
        if m.kernel.shape[0] != len(world.datasets):
            raise ValueError(f"mechanism {m.name!r} dataset dimension mismatch")
    for g in dependence:
        g.validate_against(mechs)
    per_x = _per_dataset_joint(list(mechs), list(dependence), dims)
    rows = []
    for s in range(len(world.secrets)):
        if world.marginal_secret[s] > 0:
            rows.append(world.conditional_dataset(s) @ per_x)
        else:
            rows.append(np.full(size, 1.0 / size))
    return ComposedJoint(matrix=np.array(rows), dims=dims)


def _product_law(world: World, mechs: list[MechanismKernel]) -> np.ndarray:
    """Per-secret product of the effective marginals (rows = secrets)."""
    effs = [effective_kernel(world, mech).matrix for mech in mechs]
    rows = []
    for s in range(len(world.secrets)):
        row = np.ones(1)
        for eff in effs:
            row = np.multiply.outer(row, eff[s]).ravel()
        rows.append(row)
    return np.array(rows)


def product_pair(world: World, mechs: list[MechanismKernel], s0: int, s1: int) -> DistPair:
    """Product of the effective marginals: the dependence-ignoring joint."""
    law = _product_law(world, mechs)
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
    worst = worst_pair(world, _product_law(world, mechs), delta=delta_g)
    return (worst.value, worst.values) if per_pair else worst.value


def _overline_loss(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup],
    s0: int,
    s1: int,
) -> LossSum:
    """The pushed-forward copula term plus the convolved marginal PLDs.

    The copula term (world + dependence losses) only pins down the loss
    variable under s0, so its PLD is taken as that pushforward.  The
    marginals' convolution holds at most one atom per outcome of the
    product alphabet; the copula term is added as a second independent
    factor and never convolved in.  The result is the accounting object
    behind the conservative bound.
    """
    copula = decompose_plrv(world, mechs, dependence, s0, s1).world_pld()
    plds = [pld_from_pair(DistPair(*effective_kernel(world, mech).pair(s0, s1))) for mech in mechs]
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
    vals = {}
    for (s0, s1) in sorted(world.adjacency):
        vals[(s0, s1)] = _overline_loss(world, mechs, dependence, s0, s1).epsilon(delta_g)
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
    cj = composed_joint(world, mechs, dependence)
    prod_law = _product_law(world, mechs)
    opt_rows, dt_rows = [], []
    for (s0, s1) in sorted(world.adjacency):
        joint_pair = cj.pair(s0, s1)
        prod = DistPair(prod_law[s0], prod_law[s1])
        over = _overline_loss(world, mechs, dependence, s0, s1)
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
    basic = basic_composition_check(world, mechs, dependence)
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
    eps_list, delta_list = [], []
    for i, mech in enumerate(mechs):
        eff = effective_kernel(world, mech).matrix
        if delta_is is not None:
            d_i = delta_is[i]
            e_i = worst_pair(world, eff, delta=d_i).value
        else:
            e_i = eps_budget / len(mechs)
            d_i = worst_pair(world, eff, eps=e_i).value
        eps_list.append(e_i)
        delta_list.append(d_i)
    eps_sum, delta_sum = sum(eps_list), sum(delta_list)
    if math.isinf(eps_sum):
        return {"holds": True, "witness": None, "eps_sum": eps_sum, "delta_sum": delta_sum,
                "per_mechanism": list(zip(eps_list, delta_list))}
    worst = worst_pair(world, composed_joint(world, mechs, dependence).matrix, eps=eps_sum)
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
    if eps < 0 or not 0 <= delta <= 1:
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
    prod_law = _product_law(world, mechs)
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
    prod = _product_law(world, mechs)
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
