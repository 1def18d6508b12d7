"""The dense route: the bounds read on laws with one column per outcome of
the product alphabet (the composed joint and the product of the effective
kernels), with the library's own primitives.  Repeated mechanisms make the
library read them on type classes instead; the tests hold those answers to
these within ``TOL``."""

import math

import numpy as np

from dcpkit import ic
from dcpkit.composition import Composition, PlrvDecomposition
from dcpkit.divergence import Law, tradeoff_curve, worst_pair
from dcpkit.model import MechanismKernel, _posterior, composed_law, effective_kernel, lay_out, mix_kernel

TOL = 1e-12  # relative to max(1, |value|)


def close(got, want) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= TOL * max(1.0, abs(want))


def dense_laws(world, mechs, dependence=()):
    """The composed joint and the product of the effective kernels."""
    joint = composed_law(world, mechs, dependence)
    product = lay_out([((i,), effective_kernel(world, m).matrix) for i, m in enumerate(mechs)],
                      tuple(m.n_outputs for m in mechs))
    return joint, product


def dense_mechanism(world, mechs, dependence=()) -> MechanismKernel:
    """One mechanism whose kernel is the composition's per-dataset product
    kernel, a group's joint kernel standing in for its members': composed
    alone its law is ``composed_law(world, mechs, dependence)`` bit for bit,
    so a library call given it runs on the dense joint."""
    grouped = {i for g in dependence for i in g.members}
    factors = [((i,), m.kernel) for i, m in enumerate(mechs) if i not in grouped]
    factors += [(g.members, g.joint_kernel) for g in dependence]
    kernel = lay_out(factors, tuple(m.n_outputs for m in mechs))
    return MechanismKernel("dense", tuple(map(str, range(kernel.shape[1]))), kernel)


def close_arrays(got, want) -> bool:
    """Equal shapes, and each entry ``close`` or the same NaN or infinity."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    with np.errstate(invalid="ignore"):
        near = np.abs(got - want) <= TOL * np.maximum(1.0, np.abs(want))
    return bool((near | (got == want) | (np.isnan(got) & np.isnan(want))).all())


def close_curves(got, want) -> bool:
    """Two piecewise-linear curves, each given as (xs, ys) vertices, agree
    within ``TOL`` on the union of their vertex grids."""
    grid = np.union1d(got[0], want[0])
    return close_arrays(np.interp(grid, *got), np.interp(grid, *want))


def dense_dominance(world, joint, product) -> dict:
    """``composition.tradeoff_dominance`` on dense laws."""
    joint, product = Law(joint), Law(product)
    violation, gap = -math.inf, 0.0
    for pair in sorted(world.adjacency):
        jc, pc = tradeoff_curve(joint.pair(*pair)), tradeoff_curve(product.pair(*pair))
        grid = np.union1d(jc.alphas, pc.alphas)
        diff = jc.beta(grid) - pc.beta(grid)
        violation, gap = max(violation, float(diff.max())), max(gap, float(-diff.min()))
    return {"max_violation": violation, "max_gap": gap}


def dense_cel(world, joint, product) -> dict:
    """``composition.cel_compare`` on dense laws."""
    prior = world.marginal_secret
    w_joint, w_prod = joint * prior[:, None], product * prior[:, None]
    marg_joint, marg_prod = w_joint.sum(axis=0), w_prod.sum(axis=0)
    cel_joint = cel_prod = 0.0
    for s in range(len(world.secrets)):
        live = w_joint[s] > 0.0
        cel_joint -= float((w_joint[s, live] * np.log(w_joint[s, live] / marg_joint[live])).sum())
        cel_prod -= float((w_joint[s, live] * np.log(w_prod[s, live] / marg_prod[live])).sum())
    return {"cel_joint": cel_joint, "cel_product": cel_prod}


def dense_task2(world, joint, delta_g, loss="log") -> dict:
    """``ic.solve_task2``'s numbers on the dense joint; ``tau_g`` is inf when
    no finite ratio bound exists."""
    post, _, live = _posterior(world.marginal_secret, joint)
    prior, rows = ic._on_support(world, post[live])
    with np.errstate(divide="ignore"):
        tau = max(1.0, float((prior / rows).max()))
    if delta_g > 0.0:
        tau = max(tau, float((rows**2 / prior).sum(axis=1).max()) / delta_g)
    else:
        tau = max(tau, float((rows / prior).max()))
    out = {"tau_g": tau, "pi": post, "live_outcomes": int(live.sum())}
    if tau <= ic.TAU_CAP:
        eps_g = ic.epsilon_of_tau(tau, world)
        out.update(eps_g=eps_g, direct_check_delta=worst_pair(world, joint, eps=eps_g).value,
                   feasibility=ic.pi_feasible(post, world, tau, delta_g, live).max_residual,
                   loss_value=ic._spsr_loss(post, world.marginal_secret, joint, loss))
    return out


def _log_mass_ratio(log_num, log_den):
    # log(num/den) with the 0/0 case neutral
    out = log_num - log_den
    out[np.isneginf(log_num) & np.isneginf(log_den)] = 0.0
    return out


def dense_decomposition(world, mechs, dependence, s0, s1) -> PlrvDecomposition:
    """``composition.decompose_plrv`` on the composed joint, one column per
    outcome: the effective kernels' logs laid out on the product alphabet
    and each term computed per outcome, the world term directly as the log
    ratio of the joint to the group-product reference density."""
    value = Composition.of(world, mechs, dependence)
    effs = [eff.matrix for eff in value.effs]
    groups = [(g.members, mix_kernel(world, g.joint_kernel)) for g in dependence]
    b0, b1 = value.joint.matrix[s0], value.joint.matrix[s1]
    dims = tuple(eff.shape[1] for eff in effs)
    rows = [s0, s1]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = [np.log(eff[rows]) for eff in effs]  # per mechanism: rows s0, s1
        log_id = lay_out([((i,), lg[:1] - lg[1:]) for i, lg in enumerate(logs)], dims, np.add)[0]
        # log of the group-product reference density, rows s0 and s1
        log_m = lay_out([((i,), lg) for i, lg in enumerate(logs)], dims, np.add)
        dep_term = np.zeros(b0.size)
        for members, law in groups:
            g = lay_out([(members, np.log(law[rows]))], dims, np.add)
            # members' marginal factors inside this group
            p = lay_out([((i,), logs[i]) for i in members], dims, np.add)
            dep_term = dep_term + _log_mass_ratio(g[0], p[0]) - _log_mass_ratio(g[1], p[1])
            # the group's joint replaces its members' product in the reference density
            log_m = log_m + (g - p)
        log_b0, log_b1 = np.log(np.maximum(value.joint.matrix[rows], 0.0))
        total = log_b0 - log_b1
        world_term = _log_mass_ratio(log_b0, log_m[0]) - _log_mass_ratio(log_b1, log_m[1])
        world_term = np.where(np.isnan(world_term) & (b0 > 0.0) & (b1 == 0.0), np.inf, world_term)
        world_term = np.where(np.isnan(world_term) & (b0 == 0.0) & (b1 > 0.0), -np.inf, world_term)
    dead = (b0 == 0.0) & (b1 == 0.0)
    total[dead] = world_term[dead] = dep_term[dead] = np.nan
    return PlrvDecomposition(total, world_term, dep_term, log_id, ref_masses=b0)
