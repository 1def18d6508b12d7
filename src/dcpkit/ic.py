"""Inverse composition: design a secret-channel strategy, or certify an
existing composition, through posterior constraints.

The design problem couples a leader's secret-channel kernel alpha with a
follower's response pi under a strictly proper scoring rule; feasibility of
the induced posterior inside the ratio/expectation constraint set is what
certifies the composition.  The solver runs a penalty loop with alternating
projected-gradient steps and then re-certifies from the exact posterior, so
its guarantees never rest on optimizer convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .composition import Composition
from .divergence import Law, bisect_monotone, worst_pair
from .model import DependenceGroup, MechanismKernel, World, check_cap, join_per_secret

LOG_FLOOR = 1e-12
TAU_CAP = 1e6
# task 1's penalty loop: first weight, growth per outer round, inner-step stop
PENALTY_INIT = 10.0
PENALTY_GROWTH = 10.0
INNER_TOL = 1e-8


def p_star(world: World) -> float:
    """Smallest prior mass among adjacency-active secrets (all live secrets
    when the adjacency is empty)."""
    marg = world.marginal_secret
    active = sorted({s for pair in world.adjacency for s in pair})
    if not active:
        active = [s for s in range(len(world.secrets)) if marg[s] > 0]
    val = float(min(marg[s] for s in active))
    if val <= 0.0:
        raise ValueError("adjacency-active secret with zero prior mass")
    return val


def epsilon_of_tau(tau_g: float, world: World) -> float:
    """Privacy parameter log(1 + (tau_g - 1)/P*) implied by a ratio bound."""
    if not tau_g >= 1.0:
        raise ValueError(f"tau_g must be >= 1, got {tau_g}")
    return math.log1p((tau_g - 1.0) / p_star(world))


def tau_of_epsilon(eps_g: float, world: World) -> float:
    """Inverse of epsilon_of_tau: the ratio bound matching a target epsilon."""
    if not eps_g >= 0:
        raise ValueError(f"eps_g must be >= 0, got {eps_g}")
    return 1.0 + p_star(world) * math.expm1(eps_g)


def pi_set_nonempty(tau_g: float, delta_g: float) -> bool:
    """Exact emptiness test for the constraint set.

    With delta_g > 0 the expectation constraint is minimized at the prior,
    where it equals 1, so the set is nonempty iff delta_g * tau_g >= 1;
    with delta_g = 0 the prior itself always belongs.
    """
    if not tau_g >= 1.0:
        raise ValueError(f"tau_g must be >= 1, got {tau_g}")
    if delta_g == 0.0:
        return True
    return delta_g * tau_g >= 1.0 - 1e-12


def joint_with_alpha(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup],
    alpha: np.ndarray | None,
) -> np.ndarray:
    """Per-secret law over (mechanism outputs, alpha output).

    alpha acts on the secret directly and draws independently of the
    dataset channel, so the joint given s is the outer product of the
    composed row with alpha's row.
    """
    b = _composed_law(world, mechs, dependence).matrix
    if alpha is None:
        return b
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != b.shape[0]:
        raise ValueError("alpha must have one row per secret")
    return join_per_secret(b, alpha)


def _composed_law(world: World, mechs: list[MechanismKernel],
                  dependence: list[DependenceGroup]) -> Law:
    """The composed joint, or one sure outcome without mechanisms."""
    if mechs:
        return Composition.of(world, mechs, dependence).joint
    return Law(np.ones((len(world.secrets), 1)))


def posterior(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup],
    alpha: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Bayes posterior over secrets per joint outcome.

    Returns (posterior rows [outcomes x secrets], outcome weights, live
    mask); rows for zero-weight outcomes are marked dead and left as the
    prior.
    """
    return _posterior(world, joint_with_alpha(world, mechs, dependence, alpha))


def _posterior(world: World, law: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``posterior`` of a per-secret law already joined with alpha."""
    prior = world.marginal_secret
    weights = law * prior[:, None]           # secrets x outcomes
    marginal = weights.sum(axis=0)
    live = marginal > 0.0
    if not live.any():
        raise ValueError("all joint outcomes carry zero mass")
    post = np.empty((law.shape[1], prior.size))  # outcomes x secrets
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the dead rows, reset below
        np.divide(weights.T, marginal[:, None], out=post)
    post[~live] = prior
    return post, marginal, live


@dataclass(frozen=True)
class FeasibilityReport:
    """Signed constraint residuals of a response matrix; feasible iff all <= 0."""

    max_lower: float
    max_upper: float       # only binding when delta_g = 0
    max_expectation: float  # only binding when delta_g > 0
    max_residual: float

    @property
    def feasible(self) -> bool:
        return self.max_residual <= 0.0


def pi_feasible(
    pi: np.ndarray,
    world: World,
    tau_g: float,
    delta_g: float,
    live: np.ndarray | None = None,
) -> FeasibilityReport:
    """Residuals of the ratio/expectation constraint set at (tau_g, delta_g).

    Constraints are evaluated on live outcome rows and positive-prior
    secrets; with delta_g > 0 the set is {pi >= P/tau, E_pi[pi/P] <=
    delta_g tau}, with delta_g = 0 the ratio band P/tau <= pi <= tau P.
    """
    if not tau_g >= 1.0:
        raise ValueError(f"tau_g must be >= 1, got {tau_g}")
    pi = np.asarray(pi, dtype=float)
    prior, rows = _on_support(world, pi if live is None or live.all() else pi[live])
    # rounding is monotone, so a column's extreme residual is the residual
    # of its extreme entry: one reduction per column, no full-size temporary
    max_lower = float((prior / tau_g - rows.min(axis=0)).max())
    if delta_g > 0.0:
        expect = (rows**2 / prior[None, :]).sum(axis=1) - delta_g * tau_g
        max_expect = float(expect.max())
        max_upper = -math.inf
    else:
        max_upper = float((rows.max(axis=0) - tau_g * prior).max())
        max_expect = -math.inf
    max_res = max(max_lower, max_upper, max_expect)
    return FeasibilityReport(max_lower, max_upper, max_expect, max_res)


def _on_support(world: World, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The prior and the columns of ``rows`` (one per secret) on its support:
    a zero-prior secret has no constraint."""
    prior = world.marginal_secret
    support = prior > 0.0
    return (prior, rows) if support.all() else (prior[support], rows[:, support])


def spsr_loss(
    pi: np.ndarray,
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup],
    alpha: np.ndarray | None,
    loss: str = "log",
) -> float:
    """Expected scoring-rule loss of a response under the joint weight.

    The log variant drops the outcome-marginal factor, which cancels in
    the expectation; a response putting zero mass on a positive-weight
    cell scores +inf.
    """
    return _spsr_loss(pi, world, joint_with_alpha(world, mechs, dependence, alpha), loss)


def _spsr_loss(pi: np.ndarray, world: World, law: np.ndarray, loss: str) -> float:
    """``spsr_loss`` under a per-secret law already joined with alpha."""
    weights = (law * world.marginal_secret[:, None]).T   # outcomes x secrets, a view
    pi = np.asarray(pi, dtype=float)
    if loss == "log":
        hot = weights > 0.0
        pi_hot = pi[hot]
        if np.any(pi_hot <= 0.0):
            return math.inf
        return float(-(weights[hot] * np.log(pi_hot)).sum())
    if loss == "brier":
        sq = (pi**2).sum(axis=1, keepdims=True)
        return float((weights * (sq - 2.0 * pi + 1.0)).sum())
    raise ValueError(f"unknown loss {loss!r}")


@dataclass(frozen=True)
class IcProblem:
    world: World
    mechs: list[MechanismKernel]
    dependence: list[DependenceGroup] = field(default_factory=list)
    delta_g: float = 0.0
    tau_g: float | None = None        # None means task 2 (tau free)
    alpha_size: int = 2
    loss: str = "log"
    outer_rounds: int = 8
    max_inner: int = 400
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.delta_g <= 1.0:
            raise ValueError(f"delta_g must lie in [0, 1], got {self.delta_g}")
        if self.tau_g is not None and not self.tau_g >= 1.0:
            raise ValueError(f"tau_g must be >= 1, got {self.tau_g}")
        if self.alpha_size < 1:
            raise ValueError("alpha alphabet must have at least one symbol")
        if self.loss not in ("log", "brier"):
            raise ValueError(f"loss must be 'log' or 'brier', got {self.loss!r}")
        p_star(self.world)  # refuses a zero-prior secret in an adjacent pair


@dataclass(frozen=True)
class IcSolution:
    alpha: np.ndarray
    pi: np.ndarray
    tau_g: float
    eps_g: float
    feasibility: float
    certified: bool
    direct_check_delta: float
    loss_value: float
    diagnostics: dict


def _project_rows_simplex(mat: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex, rows
    sorted by an odd-even transposition network of column compare-exchanges."""
    n = mat.shape[1]
    srt = mat.T.copy()                       # columns x rows, sorted in place
    for r in range(n):
        for j in range(r % 2, n - 1, 2):
            srt[j], srt[j + 1] = np.maximum(srt[j], srt[j + 1]), np.minimum(srt[j], srt[j + 1])
    css = np.cumsum(srt, axis=0) - 1.0
    rho = (srt - css / np.arange(1, n + 1)[:, None] > 0).sum(axis=0)
    theta = css[rho - 1, np.arange(mat.shape[0])] / rho
    return np.maximum(mat - theta[:, None], 0.0)


def _penalty_terms(pi, prior, tau_g, delta_g):
    lower = np.maximum(prior[None, :] / tau_g - pi, 0.0)
    if delta_g > 0.0:
        expect = np.maximum((pi**2 / prior[None, :]).sum(axis=1) - delta_g * tau_g, 0.0)
        return lower, expect, None
    upper = np.maximum(pi - tau_g * prior[None, :], 0.0)
    return lower, None, upper


def _penalty_value(pi, prior, tau_g, delta_g):
    lower, expect, upper = _penalty_terms(pi, prior, tau_g, delta_g)
    val = float((lower**2).sum())
    if expect is not None:
        val += float((expect**2).sum())
    if upper is not None:
        val += float((upper**2).sum())
    return val


def _penalty_grad(pi, prior, tau_g, delta_g):
    lower, expect, upper = _penalty_terms(pi, prior, tau_g, delta_g)
    grad = -2.0 * lower
    if expect is not None:
        grad = grad + (2.0 * expect)[:, None] * (2.0 * pi / prior[None, :])
    if upper is not None:
        grad = grad + 2.0 * upper
    return grad


def _loss_and_grad_pi(pi, weights, loss):
    pic = np.maximum(pi, LOG_FLOOR)
    if loss == "log":
        val = float(-(weights * np.log(pic)).sum())
        grad = -weights / pic
    else:
        sq = (pi**2).sum(axis=1, keepdims=True)
        val = float((weights * (sq - 2.0 * pi + 1.0)).sum())
        wrow = weights.sum(axis=1, keepdims=True)
        grad = wrow * 2.0 * pi - 2.0 * weights
    return val, grad


def _pi_step(pi, weights, prior, tau_g, delta_g, mu, loss, inner_tol, max_inner):
    """Projected gradient with backtracking on loss + mu * penalty."""

    def value(p):
        v, _ = _loss_and_grad_pi(p, weights, loss)
        return v + mu * _penalty_value(p, prior, tau_g, delta_g)

    cur = value(pi)
    step = 1.0
    for _ in range(max_inner):
        _, lg = _loss_and_grad_pi(pi, weights, loss)
        grad = lg + mu * _penalty_grad(pi, prior, tau_g, delta_g)
        moved = False
        delta_move = math.inf
        for _bt in range(40):
            cand = _project_rows_simplex(pi - step * grad)
            cval = value(cand)
            if cval <= cur - 1e-4 / max(step, 1e-12) * float(((cand - pi) ** 2).sum()):
                delta_move = float(np.abs(cand - pi).max())
                pi, cur = cand, cval
                moved = True
                step = min(step * 2.0, 1e3)
                break
            step *= 0.5
        if not moved or delta_move < inner_tol:
            break
    return pi, cur


def _alpha_grad(alpha, pi, world, b, loss):
    """Gradient of the expected loss in alpha (constraints are alpha-free)."""
    prior = world.marginal_secret
    n_y = b.shape[1]
    m = alpha.shape[1]
    pi_cube = pi.reshape(n_y, m, -1)          # y, a, s
    pic = np.maximum(pi_cube, LOG_FLOOR)
    if loss == "log":
        # d/d alpha[s,a] of -sum_y P(s) b(y|s) alpha(a|s) log pi(s|y,a)
        core = -np.log(pic)                    # y, a, s
    else:
        sq = (pi_cube**2).sum(axis=2, keepdims=True)
        core = sq - 2.0 * pi_cube + 1.0
    sel = np.einsum("ys,yas->sa", b.T * prior[None, :], core)
    return sel


def solve_task1(problem: IcProblem) -> IcSolution:
    """Design an added secret-channel kernel hitting (tau_g, delta_g).

    Penalty loop with alternating projected-gradient updates; on exit the
    response is reset to the exact posterior of the final alpha and the
    certificate is recomputed from scratch (constraint residuals plus a
    direct divergence check of the full composition).  The design runs on
    the positive-prior secrets only; a zero-prior secret gets a uniform row.
    """
    if problem.tau_g is None:
        raise ValueError("task 1 needs a fixed tau_g")
    tau_g, delta_g, m = problem.tau_g, problem.delta_g, problem.alpha_size
    rng = np.random.default_rng(problem.seed)
    b_all = _composed_law(problem.world, problem.mechs, problem.dependence).matrix
    check_cap(b_all.shape[1] * m, f"{b_all.shape[1]} outcomes x {m} channel symbols")
    world, keep = _positive_prior(problem.world)
    prior = world.marginal_secret
    n_s = len(world.secrets)
    b = b_all[keep]

    alpha = _project_rows_simplex(np.full((n_s, m), 1.0 / m) + 0.02 * rng.standard_normal((n_s, m)))
    if m == 1:
        alpha = np.ones((n_s, 1))

    def weights_of(a):
        return (join_per_secret(b, a) * prior[:, None]).T

    def elicited_objective(a, mu):
        # leader's view: the follower answers with the exact posterior, so
        # both the score and the penalty are evaluated at that response
        law = join_per_secret(b, a)
        post, _, live_mask = _posterior(world, law)
        val = _spsr_loss(post, world, law, problem.loss)
        return val + mu * _penalty_value(post[live_mask], prior, tau_g, delta_g)

    pi = _project_rows_simplex(np.maximum(weights_of(alpha), LOG_FLOOR))
    mu = PENALTY_INIT
    for _round in range(problem.outer_rounds):
        weights = weights_of(alpha)
        pi, _ = _pi_step(pi, weights, prior, tau_g, delta_g, mu, problem.loss,
                         INNER_TOL, problem.max_inner)
        if m > 1:
            # the score gradient gives the direction; acceptance is judged on
            # the elicited objective so alpha cannot outrun the constraints
            grad_a = _alpha_grad(alpha, pi, world, b, problem.loss)
            cur = elicited_objective(alpha, mu)
            step = 1.0
            for _bt in range(30):
                cand = _project_rows_simplex(alpha - step * grad_a)
                cval = elicited_objective(cand, mu)
                if cval < cur - 1e-15:
                    alpha = cand
                    break
                step *= 0.5
        mu *= PENALTY_GROWTH

    # retraction: if the exact posterior overshoots the constraint set, pull
    # alpha toward the uninformative channel until it re-enters
    uniform = np.full((n_s, m), 1.0 / m)

    def residual_of(a):
        post, _, live_mask = _posterior(world, join_per_secret(b, a))
        return pi_feasible(post, world, tau_g, delta_g, live_mask).max_residual

    if residual_of(alpha) > 0.0 and residual_of(uniform) <= 0.0:
        # mixing weight toward uniform
        _, hi_t = bisect_monotone(
            lambda t: residual_of((1.0 - t) * alpha + t * uniform) <= 0.0, 0.0, 1.0,
            geometric=False, tol=0.0, max_iter=80,
        )
        alpha = (1.0 - hi_t) * alpha + hi_t * uniform

    alpha_all = np.full((b_all.shape[0], m), 1.0 / m)
    alpha_all[keep] = alpha
    law = join_per_secret(b_all, alpha_all)
    post, _, live = _posterior(problem.world, law)
    return _certified_solution(problem, alpha_all, tau_g, Law(law), post, live,
                               {"prescreen_prior_feasible": pi_set_nonempty(tau_g, delta_g)})


def _positive_prior(world: World) -> tuple[World, np.ndarray]:
    """``world`` on its positive-prior secrets, and their indices in it.  No
    adjacent pair touches a zero-prior secret, so every pair carries over."""
    keep = np.flatnonzero(world.marginal_secret > 0.0)
    new = {int(s): i for i, s in enumerate(keep)}
    sub = World(tuple(world.secrets[s] for s in keep), world.datasets, world.joint[keep],
                frozenset((new[a], new[b]) for a, b in world.adjacency))
    return sub, keep


def solve_task2(problem: IcProblem) -> IcSolution:
    """Tightest ratio bound certifying the existing composition.

    The added channel is constant and the response is the exact posterior
    pi, so each constraint bounds tau_g alone (live outcomes, positive-prior
    secrets): tau_g >= P/pi, and pi/P (delta_g = 0) or sum(pi^2/P)/delta_g.
    Every outcome of a type class has its type's posterior, so the bound,
    the certificate and the loss are read on the composition's ``lumped``
    law, one atom per type; ``pi`` repeats each atom's row for its outcomes.
    """
    world, mechs, dependence = problem.world, problem.mechs, problem.dependence
    delta_g = problem.delta_g
    alpha = np.ones((len(world.secrets), 1))
    # joined with a constant alpha the composition's law is itself
    value = Composition.of(world, mechs, dependence) if mechs else None
    law = value.lumped if mechs else _composed_law(world, mechs, dependence)
    post, _, live = _posterior(world, law.matrix)
    prior, rows = _on_support(world, post if live.all() else post[live])
    with np.errstate(divide="ignore"):  # pi = 0 on a positive-prior secret: no finite tau
        tau = max(1.0, float((prior / rows).max()))
    if delta_g > 0.0:
        tau = max(tau, float((rows**2 / prior).sum(axis=1).max()) / delta_g)
    else:
        tau = max(tau, float((rows / prior).max()))
    if tau > TAU_CAP:
        raise ValueError(f"no feasible tau_g below the cap {TAU_CAP}")
    return _certified_solution(problem, alpha, tau, law, post, live, {}, value)


def _certified_solution(problem: IcProblem, alpha: np.ndarray, tau_g: float, law: Law,
                        post: np.ndarray, live: np.ndarray, diagnostics: dict,
                        value: Composition | None = None) -> IcSolution:
    """Certify from scratch at tau_g: constraint residuals of the exact
    posterior ``post`` under ``law`` (the composition joined with
    ``alpha``), plus a direct divergence check of that law.  With ``value``
    the law is its ``lumped`` law: ``post`` has one row per atom, and the
    solution's ``pi`` and live count are per outcome."""
    world = problem.world
    report = pi_feasible(post, world, tau_g, problem.delta_g, live)
    eps_g = epsilon_of_tau(tau_g, world)
    direct = law.worst(world, eps=eps_g).value
    return IcSolution(
        alpha=alpha,
        pi=post if value is None else value.per_outcome(post),
        tau_g=tau_g,
        eps_g=eps_g,
        feasibility=report.max_residual,
        certified=report.max_residual <= 1e-6 and direct <= problem.delta_g + 1e-6,
        direct_check_delta=direct,
        loss_value=_spsr_loss(post, world, law.matrix, problem.loss),
        diagnostics={**diagnostics, "residuals": report,
                     "live_outcomes": int(live.sum() if value is None else value.counts[live].sum())},
    )


@dataclass(frozen=True)
class CertReport:
    """Three-stage certificate: constraint membership of the exact
    posterior, the implied high-probability ratio bound, and the direct
    divergence check; the first stage decides, the others corroborate."""

    stage1_residual: float
    stage1_pass: bool
    stage2_max_tail: float
    stage2_pass: bool
    stage3_delta: float
    stage3_pass: bool
    certified: bool
    internal_error: bool
    sufficient_condition_gap: bool
    eps_g: float
    tau_g: float
    delta_g: float


def certify(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup],
    alpha: np.ndarray | None,
    tau_g: float,
    delta_g: float,
) -> CertReport:
    law = joint_with_alpha(world, mechs, dependence, alpha)
    post, _, live = _posterior(world, law)
    report = pi_feasible(post, world, tau_g, delta_g, live)
    stage1 = report.max_residual <= 1e-6

    # posterior-ratio tail mass outside [1/tau, tau], worst outcome
    prior, rows = _on_support(world, post[live])
    ratio = rows / prior[None, :]
    outside = (ratio > tau_g * (1.0 + 1e-12)) | (ratio < (1.0 - 1e-12) / tau_g)
    tails = (rows * outside).sum(axis=1)
    stage2_tail = float(tails.max())
    stage2 = stage2_tail <= delta_g + 1e-9

    eps_g = epsilon_of_tau(tau_g, world)
    direct = worst_pair(world, law, eps=eps_g).value
    stage3 = direct <= delta_g + 1e-6

    return CertReport(
        stage1_residual=report.max_residual,
        stage1_pass=stage1,
        stage2_max_tail=stage2_tail,
        stage2_pass=stage2,
        stage3_delta=direct,
        stage3_pass=stage3,
        certified=stage1,
        internal_error=stage1 and not (stage2 and stage3),
        sufficient_condition_gap=(not stage1) and stage3,
        eps_g=eps_g,
        tau_g=tau_g,
        delta_g=delta_g,
    )
