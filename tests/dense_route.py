"""The dense route: the bounds read on laws with one column per outcome of
the product alphabet (the composed joint and the product of the effective
kernels), with the library's own primitives.  Repeated mechanisms make the
library read them on type classes instead; the tests hold those answers to
these within ``TOL``."""

import math

import numpy as np

from dcpkit import ic
from dcpkit.divergence import Law, tradeoff_curve, worst_pair
from dcpkit.model import MechanismKernel, _posterior, composed_law, effective_kernel, lay_out

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
