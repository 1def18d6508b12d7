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

from .composition import composed_joint
from .divergence import bisect_monotone, worst_pair
from .model import DependenceGroup, MechanismKernel, World

LOG_FLOOR = 1e-12
TAU_CAP = 1e6


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
    if tau_g < 1.0:
        raise ValueError(f"tau_g must be >= 1, got {tau_g}")
    return math.log1p((tau_g - 1.0) / p_star(world))


def tau_of_epsilon(eps_g: float, world: World) -> float:
    """Inverse of epsilon_of_tau: the ratio bound matching a target epsilon."""
    if eps_g < 0:
        raise ValueError(f"eps_g must be >= 0, got {eps_g}")
    return 1.0 + p_star(world) * math.expm1(eps_g)


def pi_set_nonempty(tau_g: float, delta_g: float) -> bool:
    """Exact emptiness test for the constraint set.

    With delta_g > 0 the expectation constraint is minimized at the prior,
    where it equals 1, so the set is nonempty iff delta_g * tau_g >= 1;
    with delta_g = 0 the prior itself always belongs.
    """
    if tau_g < 1.0:
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
    return _with_alpha(_composed_law(world, mechs, dependence), alpha)


def _composed_law(world: World, mechs: list[MechanismKernel],
                  dependence: list[DependenceGroup]) -> np.ndarray:
    """The composed joint's rows, or one sure outcome without mechanisms."""
    if mechs:
        return composed_joint(world, mechs, dependence).matrix
    return np.ones((len(world.secrets), 1))


def _with_alpha(b: np.ndarray, alpha: np.ndarray | None) -> np.ndarray:
    """``joint_with_alpha`` on an already composed law ``b`` (rows = secrets)."""
    if alpha is None:
        return b
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != b.shape[0]:
        raise ValueError("alpha must have one row per secret")
    return np.einsum("sy,sa->sya", b, alpha).reshape(b.shape[0], -1)


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
    post = np.tile(prior, (law.shape[1], 1))
    post[live] = (weights[:, live] / marginal[live]).T
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
    if tau_g < 1.0:
        raise ValueError(f"tau_g must be >= 1, got {tau_g}")
    pi = np.asarray(pi, dtype=float)
    prior, rows = _on_support(world, pi if live is None else pi[live])
    lower = (prior[None, :] / tau_g) - rows
    max_lower = float(lower.max())
    if delta_g > 0.0:
        expect = (rows**2 / prior[None, :]).sum(axis=1) - delta_g * tau_g
        max_expect = float(expect.max())
        max_upper = -math.inf
    else:
        upper = rows - tau_g * prior[None, :]
        max_upper = float(upper.max())
        max_expect = -math.inf
    max_res = max(max_lower, max_upper, max_expect)
    return FeasibilityReport(max_lower, max_upper, max_expect, max_res)


def _on_support(world: World, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The prior and the columns of ``rows`` (one per secret) on its support:
    a zero-prior secret has no constraint."""
    support = world.marginal_secret > 0.0
    return world.marginal_secret[support], rows[:, support]


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
    weights = (law * world.marginal_secret[:, None]).T   # outcomes x secrets
    pi = np.asarray(pi, dtype=float)
    if loss == "log":
        hot = weights > 0.0
        if np.any(pi[hot] <= 0.0):
            return math.inf
        return float(-(weights[hot] * np.log(pi[hot])).sum())
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
    penalty_init: float = 10.0
    penalty_growth: float = 10.0
    outer_rounds: int = 8
    inner_tol: float = 1e-8
    max_inner: int = 400
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.delta_g <= 1.0:
            raise ValueError(f"delta_g must lie in [0, 1], got {self.delta_g}")
        if self.tau_g is not None and self.tau_g < 1.0:
            raise ValueError(f"tau_g must be >= 1, got {self.tau_g}")
        if self.alpha_size < 1:
            raise ValueError("alpha alphabet must have at least one symbol")
        if self.loss not in ("log", "brier"):
            raise ValueError(f"loss must be 'log' or 'brier', got {self.loss!r}")
        if p_star(self.world) <= 0:
            raise ValueError("prior must be positive on adjacency-active secrets")


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
    """Euclidean projection of each row onto the probability simplex."""
    n = mat.shape[1]
    srt = -np.sort(-mat, axis=1)
    css = np.cumsum(srt, axis=1) - 1.0
    idx = np.arange(1, n + 1)
    cond = srt - css / idx > 0
    rho = cond.sum(axis=1)
    theta = css[np.arange(mat.shape[0]), rho - 1] / rho
    return np.maximum(mat - theta[:, None], 0.0)


def _penalty_terms(pi, prior, tau_g, delta_g):
    lower = np.maximum(prior[None, :] / tau_g - pi, 0.0)
    prior = _support_prior(prior)
    if delta_g > 0.0:
        expect = np.maximum((pi**2 / prior[None, :]).sum(axis=1) - delta_g * tau_g, 0.0)
        return lower, expect, None
    upper = np.maximum(pi - tau_g * prior[None, :], 0.0)
    return lower, None, upper


def _support_prior(prior):
    """+inf for a zero-prior secret, so its expectation and upper terms vanish."""
    return np.where(prior > 0.0, prior, np.inf)


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
        grad = grad + (2.0 * expect)[:, None] * (2.0 * pi / _support_prior(prior)[None, :])
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
    direct divergence check of the full composition).
    """
    if problem.tau_g is None:
        raise ValueError("task 1 needs a fixed tau_g")
    world, mechs, dependence = problem.world, problem.mechs, problem.dependence
    tau_g, delta_g, m = problem.tau_g, problem.delta_g, problem.alpha_size
    prior = world.marginal_secret
    n_s = len(world.secrets)
    rng = np.random.default_rng(problem.seed)

    b = _composed_law(world, mechs, dependence)
    n_y = b.shape[1]

    # prior-feasibility pre-screen: a constant response certifies nonemptiness
    prior_rows = np.tile(prior, (n_y * m, 1))
    prescreen = pi_feasible(prior_rows, world, tau_g, delta_g)

    alpha = _project_rows_simplex(np.full((n_s, m), 1.0 / m) + 0.02 * rng.standard_normal((n_s, m)))
    if m == 1:
        alpha = np.ones((n_s, 1))

    def weights_of(a):
        return (_with_alpha(b, a) * prior[:, None]).T

    def elicited_objective(a, mu):
        # leader's view: the follower answers with the exact posterior, so
        # both the score and the penalty are evaluated at that response
        law = _with_alpha(b, a)
        post, _, live_mask = _posterior(world, law)
        val = _spsr_loss(post, world, law, problem.loss)
        return val + mu * _penalty_value(post[live_mask], prior, tau_g, delta_g)

    pi = _project_rows_simplex(np.maximum(weights_of(alpha), LOG_FLOOR))
    mu = problem.penalty_init
    for _round in range(problem.outer_rounds):
        weights = weights_of(alpha)
        pi, _ = _pi_step(pi, weights, prior, tau_g, delta_g, mu, problem.loss,
                         problem.inner_tol, problem.max_inner)
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
        mu *= problem.penalty_growth

    # retraction: if the exact posterior overshoots the constraint set, pull
    # alpha toward the uninformative channel until it re-enters
    uniform = np.full((n_s, m), 1.0 / m)

    def residual_of(a):
        post, _, live_mask = _posterior(world, _with_alpha(b, a))
        return pi_feasible(post, world, tau_g, delta_g, live_mask).max_residual

    if residual_of(alpha) > 0.0 and residual_of(uniform) <= 0.0:
        # mixing weight toward uniform
        _, hi_t = bisect_monotone(
            lambda t: residual_of((1.0 - t) * alpha + t * uniform) <= 0.0, 0.0, 1.0,
            geometric=False, tol=0.0, max_iter=80,
        )
        alpha = (1.0 - hi_t) * alpha + hi_t * uniform

    law = _with_alpha(b, alpha)
    post, _, live = _posterior(world, law)
    return _certified_solution(problem, alpha, tau_g, law, post, live,
                               {"prescreen_prior_feasible": prescreen.feasible})


def solve_task2(problem: IcProblem) -> IcSolution:
    """Tightest ratio bound certifying the existing composition.

    The added channel is constant and the response is the exact posterior
    pi, so each constraint bounds tau_g alone (live outcomes, positive-prior
    secrets): tau_g >= P/pi, and pi/P (delta_g = 0) or sum(pi^2/P)/delta_g.
    """
    world, mechs, dependence = problem.world, problem.mechs, problem.dependence
    delta_g = problem.delta_g
    alpha = np.ones((len(world.secrets), 1))
    law = joint_with_alpha(world, mechs, dependence, alpha)
    post, _, live = _posterior(world, law)
    prior, rows = _on_support(world, post[live])
    with np.errstate(divide="ignore"):  # pi = 0 on a positive-prior secret: no finite tau
        tau = max(1.0, float((prior / rows).max()))
    if delta_g > 0.0:
        tau = max(tau, float((rows**2 / prior).sum(axis=1).max()) / delta_g)
    else:
        tau = max(tau, float((rows / prior).max()))
    if tau > TAU_CAP:
        raise ValueError(f"no feasible tau_g below the cap {TAU_CAP}")
    return _certified_solution(problem, alpha, tau, law, post, live, {})


def _certified_solution(problem: IcProblem, alpha: np.ndarray, tau_g: float, law: np.ndarray,
                        post: np.ndarray, live: np.ndarray, diagnostics: dict) -> IcSolution:
    """Certify from scratch at tau_g: constraint residuals of the exact
    posterior ``post`` under ``law`` (the composition joined with
    ``alpha``), plus a direct divergence check of that law."""
    world = problem.world
    report = pi_feasible(post, world, tau_g, problem.delta_g, live)
    eps_g = epsilon_of_tau(tau_g, world)
    direct = worst_pair(world, law, eps=eps_g).value
    return IcSolution(
        alpha=alpha,
        pi=post,
        tau_g=tau_g,
        eps_g=eps_g,
        feasibility=report.max_residual,
        certified=report.max_residual <= 1e-6 and direct <= problem.delta_g + 1e-6,
        direct_check_delta=direct,
        loss_value=_spsr_loss(post, world, law, problem.loss),
        diagnostics={**diagnostics, "residuals": report, "live_outcomes": int(live.sum())},
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
