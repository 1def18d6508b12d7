"""Inverse composition: design a secret-channel strategy, or certify an
existing composition, through posterior constraints.

The design problem couples a leader's secret-channel kernel alpha with a
follower's response pi under a strictly proper scoring rule; feasibility of
the induced posterior inside the ratio/expectation constraint set is what
certifies the composition.  Task 1 designs alpha: a prescreen of the
constant channel decides certifiability, and the channel is then built on
extreme rays of the cone of feasible columns, in closed form for two
secrets and by a linear program over those rays for more (exact at
delta_g = 0 or with two secrets; else the rays come from a 1/n direction
grid, an inner approximation).  Task 2 reads the tightest ratio bound in closed
form.  Every answer is re-certified from the exact posterior and a direct
divergence check, so no guarantee rests on a solver's tolerance.  Both
tasks read the composition's atoms (``Composition.lumped``), and the
response ``pi`` keeps one row per atom; ``Composition.per_outcome``
repeats it for each outcome.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .composition import Composition
from .divergence import Law, worst_pair
from .model import DependenceGroup, MechanismKernel, World, _posterior, check_cap, join_per_secret

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
    if not tau_g >= 1.0:
        raise ValueError(f"tau_g must be >= 1, got {tau_g}")
    return math.log1p((tau_g - 1.0) / p_star(world))


def tau_of_epsilon(eps_g: float, world: World) -> float:
    """Inverse of epsilon_of_tau: the ratio bound matching a target epsilon."""
    if not eps_g >= 0:
        raise ValueError(f"eps_g must be >= 0, got {eps_g}")
    try:
        return 1.0 + p_star(world) * math.expm1(eps_g)
    except OverflowError:
        raise ValueError(f"eps_g = {eps_g} puts e^eps_g past the float range") from None


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
    law = Composition.of(world, mechs, dependence).joint if mechs else _composed_law(world, mechs, dependence)[0]
    return _joined(law.matrix, alpha)


def _joined(b: np.ndarray, alpha: np.ndarray | None) -> np.ndarray:
    """The per-secret law ``b`` joined with alpha's output, or ``b`` without alpha."""
    if alpha is not None and np.shape(alpha)[0] != b.shape[0]:
        raise ValueError("alpha must have one row per secret")
    return b if alpha is None else join_per_secret(b, np.asarray(alpha, dtype=float))


def _composed_law(world: World, mechs: list[MechanismKernel],
                  dependence: list[DependenceGroup]) -> tuple[Law, np.ndarray]:
    """The composition's ``lumped`` law and the number of outcomes in each
    of its atoms, or one sure outcome without mechanisms."""
    if mechs:
        return (value := Composition.of(world, mechs, dependence)).lumped, value.counts
    return Law(np.ones((len(world.secrets), 1))), np.ones(1, dtype=np.int64)


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
    return _posterior(world.marginal_secret, joint_with_alpha(world, mechs, dependence, alpha))


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
        expect = _secret_sums(rows**2 / prior[None, :]) - delta_g * tau_g
        max_expect = float(expect.max())
        max_upper = -math.inf
    else:
        max_upper = float((rows.max(axis=0) - tau_g * prior).max())
        max_expect = -math.inf
    max_res = max(max_lower, max_upper, max_expect)
    return FeasibilityReport(max_lower, max_upper, max_expect, max_res)


def _secret_sums(rows: np.ndarray) -> np.ndarray:
    """``rows.sum(axis=1)`` of an outcomes x secrets array, each row summed
    as in a C-contiguous array, whatever the layout: numpy adds fewer than
    8 terms left to right in any layout, but 8 or more pairwise only along
    a contiguous row."""
    if rows.ndim == 2 and rows.shape[1] >= 8:
        rows = np.ascontiguousarray(rows)
    return rows.sum(axis=1)


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
    return _spsr_loss(pi, world.marginal_secret, joint_with_alpha(world, mechs, dependence, alpha), loss)


def _spsr_loss(pi: np.ndarray, prior: np.ndarray, law: np.ndarray, loss: str) -> float:
    """``spsr_loss`` under a per-secret law already joined with alpha.  Each
    sum runs over the cells in outcome-major order, whatever the layout of
    ``pi``."""
    weights = (law * prior[:, None]).T   # outcomes x secrets, a view
    pi = np.asarray(pi, dtype=float)
    if loss == "log":
        hot = weights > 0.0
        # with every weight positive, the C-order ravels pick what the masks pick
        if hot.all() and pi.shape == hot.shape:
            w_hot, pi_hot = weights.ravel(), pi.ravel()
        else:
            w_hot, pi_hot = weights[hot], pi[hot]
        if np.any(pi_hot <= 0.0):
            return math.inf
        return float(-(w_hot * np.log(pi_hot)).sum())
    if loss == "brier":
        sq = _secret_sums(pi**2)[:, None]
        return float(np.multiply(weights, sq - 2.0 * pi + 1.0, order="C").sum())
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
    """An answer: the added channel ``alpha`` (secrets x symbols) and the
    response ``pi``, a posterior row per (atom, symbol) of the composition's
    ``lumped`` law joined with ``alpha``, atom-major (one sure atom without
    mechanisms).  ``diagnostics["live_outcomes"]`` counts the live
    (outcome, symbol) rows of the per-outcome law, exactly."""

    alpha: np.ndarray
    pi: np.ndarray
    tau_g: float
    eps_g: float
    feasibility: float
    certified: bool
    direct_check_delta: float
    loss_value: float
    diagnostics: dict


def solve_task1(problem: IcProblem) -> IcSolution:
    """Design an added secret-channel kernel hitting (tau_g, delta_g).

    Deterministic, each answer certified from scratch.  The constant
    channel is judged first: no alpha certifies when it fails (the
    posterior at y mixes those at (y, a), each residual is convex in it, and
    joining alpha can only raise the direct delta), so the uniform alpha is
    returned then.  Otherwise the columns are extreme rays of the cone of
    feasible columns (``_feasible_rays``): the loss is a sum of concave,
    positively homogeneous column terms L(v), so a channel on the rays
    Blackwell-dominates every feasible one.  Two secrets take the cone's two
    ends, weighted to the row sums; more solve the linear program
    min sum_k w_k L(r_k) s.t. sum_k w_k r_k = 1, w >= 0.  A designed alpha
    failing the certificate (rounding at tau_g = tau*) gives way to the
    constant channel, so task 1 certifies exactly when that one does.
    With fewer ``alpha_size`` symbols than rays used, the pair of columns
    whose sum costs the least loss merges until they fit (a sum of feasible
    columns is feasible); spare symbols get zero columns.  A zero-prior
    secret gets a uniform row.  It reads the atoms: an atom's column is a
    multiple of its outcomes', with the same ratio cuts and the same L(v).
    """
    if problem.tau_g is None:
        raise ValueError("task 1 needs a fixed tau_g")
    tau_g, m = problem.tau_g, problem.alpha_size
    lumped, counts = _composed_law(problem.world, problem.mechs, problem.dependence)
    b_all = lumped.matrix
    check_cap(b_all.shape[1] * m, f"{b_all.shape[1]} atoms x {m} channel symbols")
    prior = problem.world.marginal_secret
    keep = np.flatnonzero(prior > 0.0)
    b, live_prior = b_all[keep], prior[keep]

    def judged(alpha: np.ndarray, diagnostics: dict) -> IcSolution:
        alpha_all = np.full((b_all.shape[0], m), 1.0 / m)
        alpha_all[keep] = alpha / alpha.sum(axis=1, keepdims=True)
        law = join_per_secret(b_all, alpha_all)
        post, _, live = _posterior(prior, law)
        return _certified_solution(problem, alpha_all, tau_g, Law(law), post, live, diagnostics, counts)

    constant = judged(np.ones((len(keep), m)), {"design": "constant"})
    design = None
    if constant.certified and m > 1 and len(keep) > 1:
        design = _design_on_rays(live_prior, b, tau_g, problem.delta_g, problem.loss)
    if design is None:
        return constant
    designed = judged(_fit_columns(live_prior, b, design[0], m, problem.loss), design[1])
    return designed if designed.certified else constant


def _design_on_rays(prior: np.ndarray, b: np.ndarray, tau_g: float, delta_g: float,
                    loss: str) -> tuple[np.ndarray, dict] | None:
    """Columns (secrets x rays) of the best channel on the feasible rays, or
    None when only the constant column is feasible."""
    n_s = b.shape[0]
    rays = _feasible_rays(prior, b, tau_g, delta_g)
    if rays is None:
        return None
    used, diagnostics = np.arange(2), {"design": "extreme-rays", "rays": len(rays)}
    if n_s > 2:
        from scipy import optimize  # only this LP needs it: kept off dcp's start-up

        losses = [_column_loss(prior, b, r, loss) for r in rays]
        res = optimize.linprog(losses, A_eq=rays.T, b_eq=np.ones(n_s), method="highs")
        if res.status != 0:
            return None
        used = np.flatnonzero(res.x > 0.0)
        diagnostics.update(lp_status=res.status, lp_gap=float(res.fun - res.eqlin.marginals.sum()))
    # the weights of the rays used, at full precision so the rows sum to one
    weights, *_ = np.linalg.lstsq(rays[used].T, np.ones(n_s), rcond=None)
    return rays[used[weights > 0.0]].T * weights[weights > 0.0], diagnostics


def _feasible_rays(prior: np.ndarray, b: np.ndarray, tau_g: float, delta_g: float) -> np.ndarray | None:
    """Feasible columns, one per row and each summing to one, spanning the
    cone of feasible columns; None when it holds the constant one c alone.

    With g = (P b)^T, column v meets the cuts g_y.v <= tau b_sy v_s
    (pi >= P/tau) and, at delta_g = 0, b_sy v_s <= tau g_y.v (pi <= tau P),
    all linear; at delta_g > 0, sum_s P_s b_sy^2 v_s^2 <= delta_g tau
    (g_y.v)^2.  With three or more secrets at delta_g = 0 the rays are the
    vertices of the cross-section sum v = 1; else they are the boundary
    points on the lines from c through the simplex grid of step 1/n (for
    two secrets the cone's two ends), an inner approximation.  Each is
    pulled towards c by a relative 1e-12, inside the cuts' rounding.
    """
    n_s, n_y = b.shape
    n_cuts = n_y * n_s * (1 if delta_g > 0.0 else 2) + n_s
    check_cap(n_cuts * n_s, f"{n_cuts} cuts on {n_s} secrets")
    g, ident = (prior[:, None] * b).T, np.eye(n_s)
    cuts = [(g[:, None, :] - tau_g * b.T[:, :, None] * ident).reshape(-1, n_s), -ident]
    if delta_g == 0.0:
        cuts.append((b.T[:, :, None] * ident - tau_g * g[:, None, :]).reshape(-1, n_s))
    cuts = np.concatenate(cuts)
    cuts = cuts[np.abs(cuts).max(axis=1) > 0.0]          # the dead outcomes cut nothing
    c = np.full(n_s, 1.0 / n_s)
    if delta_g == 0.0 and n_s > 2:
        ends = _cross_section_vertices(cuts, c)
    else:
        count = math.comb(2 * n_s - 1, n_s - 1)
        check_cap(len(cuts) * count, f"{len(cuts)} cuts x {count} directions")
        grid = _simplex_grid(n_s)
        directions = grid[np.abs(grid - c).max(axis=1) > 0.0] - c
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = cuts @ directions.T     # c passed the certificate: its slack clamps to 0
            step = np.where(slope > 0.0, np.maximum(-(cuts @ c), 0.0)[:, None] / slope,
                            np.inf).min(axis=0)
            if delta_g > 0.0:
                step = np.minimum(step, _quadratic_steps(prior * b.T**2, g, delta_g * tau_g,
                                                         c, directions))
        ends = c + step[:, None] * directions
        if not (step > 0.0).any() or (n_s == 2 and not (step > 0.0).all()):
            ends = None
    if ends is None:
        return None
    rays = np.maximum(c + (1.0 - 1e-12) * (ends - c), 0.0)
    return rays / rays.sum(axis=1, keepdims=True)


def _quadratic_steps(h: np.ndarray, g: np.ndarray, bound: float, c: np.ndarray,
                     directions: np.ndarray) -> np.ndarray:
    """Per direction d, the largest t >= 0 keeping h_y.v^2 <= bound (g_y.v)^2
    at v = c + t d for every y: as A t^2 + B t + C <= 0 with C clamped to
    <= 0, the root -2C/(B + sqrt(D)) for B > 0, (sqrt(D) - B)/(2A) for
    B <= 0 < A (the forms that do not cancel), else none."""
    gc, gd = g @ c, g @ directions.T
    a = h @ directions.T**2 - bound * gd**2
    bb = 2.0 * (h @ (c[:, None] * directions.T) - bound * gc[:, None] * gd)
    cc = np.minimum(h @ c**2 - bound * gc**2, 0.0)[:, None]
    root = np.sqrt(bb**2 - 4.0 * a * cc)                   # NaN where D < 0: no crossing
    t = np.where(bb > 0.0, -2.0 * cc / (bb + root), np.where(a > 0.0, (root - bb) / (2.0 * a), np.inf))
    return np.where(np.isnan(t), np.inf, t).min(axis=0)


def _simplex_grid(n: int) -> np.ndarray:
    """The points of the unit simplex in R^n with coordinates in multiples of
    1/n: each a placement of n - 1 bars among 2n - 1 slots."""
    bars = np.array(list(itertools.combinations(range(2 * n - 1), n - 1))).reshape(-1, n - 1)
    ends = np.c_[np.full(len(bars), -1), bars, np.full(len(bars), 2 * n - 1)]
    return (np.diff(ends, axis=1) - 1.0) / n


def _cross_section_vertices(cuts: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """Vertices of {v : cuts v <= 0, sum v = 1}, as v = c + u z over an
    orthonormal basis u of sum = 0, the Helmert contrasts (column k is
    (1, .., 1, -k, 0, ..) / sqrt(k (k + 1))); None when it has no interior."""
    from scipy import optimize, spatial  # only task 1's LP design needs them: kept off dcp's start-up

    row, k = np.arange(c.size)[:, None], np.arange(1, c.size)
    u = ((row < k) - k * (row == k)) / np.sqrt(k * (k + 1.0))
    a, off = cuts @ u, cuts @ c
    # Chebyshev centre: the interior point qhull needs
    res = optimize.linprog(np.r_[np.zeros(u.shape[1]), -1.0], b_ub=-off,
                           A_ub=np.c_[a, np.linalg.norm(a, axis=1)],
                           bounds=[(None, None)] * u.shape[1] + [(0.0, None)], method="highs")
    if res.status != 0 or res.x[-1] <= 1e-12:
        return None
    try:
        hull = spatial.HalfspaceIntersection(np.c_[a, off], res.x[:-1])
    except spatial.QhullError:      # too thin for qhull's precision: keep the constant column
        return None
    return c + hull.intersections @ u.T


def _column_loss(prior: np.ndarray, b: np.ndarray, column: np.ndarray, loss: str) -> float:
    """L(v): the expected loss of the outcomes (y, a) of channel column v = alpha(., a)."""
    law = b * column[:, None]
    return _spsr_loss(_posterior(prior, law)[0], prior, law, loss)


def _fit_columns(prior: np.ndarray, b: np.ndarray, columns: np.ndarray, m: int, loss: str) -> np.ndarray:
    """``columns`` on ``m`` symbols: merge the pair whose sum raises the loss
    least until they fit, or pad with zero columns.  The columns come out in
    a canonical order (``_column_key``, zero columns last), and merges whose
    costs tie within 1e-12 are told apart by the columns they leave in that
    order, so the last bits of the law choose neither the merge nor the
    order of the symbols."""
    cols = list(columns.T)
    while len(cols) > m:
        cost = {(i, j): _column_loss(prior, b, cols[i] + cols[j], loss)
                - _column_loss(prior, b, cols[i], loss) - _column_loss(prior, b, cols[j], loss)
                for i, j in itertools.combinations(range(len(cols)), 2)}
        least = min(cost.values())

        def left(pair):
            kept = [v for k, v in enumerate(cols) if k not in pair]
            return sorted(map(_column_key, kept + [cols[pair[0]] + cols[pair[1]]]))

        i, j = min((pair for pair, c in cost.items() if c <= least + 1e-12), key=left)
        cols[i] = cols[i] + cols.pop(j)
    cols.sort(key=_column_key)
    return np.column_stack(cols + [np.zeros(b.shape[0])] * (m - len(cols)))


def _column_key(v: np.ndarray) -> tuple:
    """A column's place in alpha: by v_1 / v_0, then lexicographically, each
    to 10 significant digits, so that ulps cannot break a tie."""
    ratio = v[1] / v[0] if v[0] > 0.0 else math.inf
    return tuple(float(f"{x:.9e}") for x in (ratio, *v))


def solve_task2(problem: IcProblem) -> IcSolution:
    """Tightest ratio bound certifying the existing composition.

    The added channel is constant and the response is the exact posterior
    pi, so each constraint bounds tau_g alone (live outcomes, positive-prior
    secrets): tau_g >= P/pi, and pi/P (delta_g = 0) or sum(pi^2/P)/delta_g.
    Every outcome of a type class has its type's posterior, so the bound,
    the certificate and the loss are read on the composition's ``lumped``
    law, one atom per type, and ``pi`` holds each atom's row once.
    """
    world, delta_g = problem.world, problem.delta_g
    alpha = np.ones((len(world.secrets), 1))
    # joined with a constant alpha the composition's law is itself
    law, counts = _composed_law(world, problem.mechs, problem.dependence)
    post, _, live = _posterior(world.marginal_secret, law.matrix)
    prior, rows = _on_support(world, post if live.all() else post[live])
    with np.errstate(divide="ignore"):  # pi = 0 on a positive-prior secret: no finite tau
        tau = max(1.0, float((prior / rows).max()))
    if delta_g > 0.0:
        tau = max(tau, float(_secret_sums(rows**2 / prior).max()) / delta_g)
    else:
        tau = max(tau, float((rows / prior).max()))
    if tau > TAU_CAP:
        raise ValueError(f"no feasible tau_g below the cap {TAU_CAP}")
    return _certified_solution(problem, alpha, tau, law, post, live, {}, counts)


def _certified_solution(problem: IcProblem, alpha: np.ndarray, tau_g: float, law: Law,
                        post: np.ndarray, live: np.ndarray, diagnostics: dict,
                        counts: np.ndarray) -> IcSolution:
    """Certify from scratch at tau_g: constraint residuals of the exact
    posterior ``post`` under ``law`` (``lumped`` joined with ``alpha``, a
    row of ``post`` per (atom, symbol)), plus a direct divergence check of
    that law; the live (outcome, symbol) rows are counted by the ``counts``
    of outcomes per atom, in int64.  With atoms x symbols capped, that sum
    can wrap only where an atom holds 2^32 outcomes or more: there each
    32-bit half of the counts is summed on its own."""
    world = problem.world
    halves = ((counts >> 32, 32), (counts & 0xFFFFFFFF, 0)) if counts.max() >> 32 else ((counts, 0),)
    cells = live.reshape(counts.size, -1)
    report = pi_feasible(post, world, tau_g, problem.delta_g, live)
    eps_g = epsilon_of_tau(tau_g, world)
    direct = law.worst(world, eps=eps_g).value
    return IcSolution(
        alpha=alpha,
        pi=post,
        tau_g=tau_g,
        eps_g=eps_g,
        feasibility=report.max_residual,
        certified=report.max_residual <= 1e-6 and direct <= problem.delta_g + 1e-6,
        direct_check_delta=direct,
        loss_value=_spsr_loss(post, world.marginal_secret, law.matrix, problem.loss),
        diagnostics={**diagnostics, "residuals": report,
                     "live_outcomes": sum(int((half @ cells).sum()) << shift for half, shift in halves)},
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
    """The three stages, maxima over outcomes, read on the ``lumped`` law
    joined with ``alpha``: an atom's outcomes share its posterior row."""
    law = _joined(_composed_law(world, mechs, dependence)[0].matrix, alpha)
    post, _, live = _posterior(world.marginal_secret, law)
    report = pi_feasible(post, world, tau_g, delta_g, live)
    stage1 = report.max_residual <= 1e-6

    # posterior-ratio tail mass outside [1/tau, tau], worst outcome
    prior, rows = _on_support(world, post[live])
    ratio = rows / prior[None, :]
    outside = (ratio > tau_g * (1.0 + 1e-12)) | (ratio < (1.0 - 1e-12) / tau_g)
    tails = _secret_sums(rows * outside)
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
