"""Acceptance suite: one test per release criterion, one printed verdict line each.

Criteria 3 and 10 assert a joint-versus-product dominance that is provably
false for this model class (redundant mechanisms make the shared-dataset
composition a garbling of the independent product); they are implemented
exactly as stated and fail with a counterexample-backed message.  See the
package README's acceptance notes.
"""

import math
import time

import numpy as np
import pytest

from dcpkit import composition as comp
from dcpkit import ic
from dcpkit.audit import lr_attack_roc, roc_bound_check
from dcpkit.copula import (
    GaussianCopulaSpec,
    GaussianMarginal,
    LaplaceMarginal,
    conservative_bound,
    marginal_tight_budget,
    perturbed_decomposition,
    psedr_samples,
)
from dcpkit.divergence import DistPair, hockey_stick, optimal_epsilon
from dcpkit.experiments import run_copula_experiment, run_independent_experiment
from dcpkit.ic import IcProblem, joint_with_alpha, pi_feasible, posterior, solve_task1, solve_task2
from dcpkit.model import World, default_adjacency, load_model
from dcpkit.pld import decompose_plrv, pld_from_pair, privacy_profile
from dcpkit.synth import (
    dirichlet_world,
    invertible_world,
    random_mechanisms,
    rr_style_mechanism,
    triangulating_instance,
)
from response_step import response_step

SEED = 20260808


def verdict(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        pair = DistPair(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
        pld = pld_from_pair(pair)
        for eps in (0.0, 0.5, 1.0, 2.0):
            worst = max(worst, abs(privacy_profile(pld, eps) - hockey_stick(pair, eps)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 2.0
    assert verdict(1, ok, f"max |profile - hockey_stick| = {worst:.2e}, {elapsed:.2f}s"), worst


def test_criterion_2_invertible_collapse():
    rng = np.random.default_rng(SEED + 1)
    worst_lg, worst_gap = 0.0, 0.0
    for _ in range(20):
        ns = int(rng.integers(2, 4))
        world = invertible_world(rng, ns, int(rng.integers(ns, 5)))
        mechs = random_mechanisms(rng, len(world.datasets), 2)
        for (s0, s1) in sorted(world.adjacency):
            dec = decompose_plrv(world, mechs, [], s0, s1)
            fin = dec.finite
            if fin.any():
                worst_lg = max(worst_lg, float(np.abs(dec.world_term[fin]).max()))
        for dg in (0.0, 0.02):
            u = comp.underline_opt(world, mechs, dg)
            t = comp.true_opt(world, mechs, [], dg)
            if math.isinf(u) and math.isinf(t):
                continue
            worst_gap = max(worst_gap, abs(t - u))
    ok = worst_lg <= 1e-12 and worst_gap <= 1e-9
    assert verdict(2, ok, f"max |world term| = {worst_lg:.2e}, max |true-underline| = {worst_gap:.2e}")


def test_criterion_3_ordering():
    rng = np.random.default_rng(SEED + 2)
    start = time.monotonic()
    left_viol, right_viol = [], []
    for idx in range(50):
        world = dirichlet_world(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5)))
        k = int(rng.integers(2, 4))
        mechs = [rr_style_mechanism(rng, len(world.datasets), f"m{i}") for i in range(k)]
        u = comp.underline_opt(world, mechs, 0.02)
        t = comp.true_opt(world, mechs, [], 0.02)
        o = comp.overline_opt(world, mechs, [], 0.02)
        if u > t + 1e-9:
            left_viol.append((idx, u - t))
        if t > o + 1e-9:
            right_viol.append((idx, t - o))
    world_c, mechs_c = triangulating_instance(noise=0.0)
    gap = comp.true_opt(world_c, mechs_c, [], 0.02) - comp.underline_opt(world_c, mechs_c, 0.02)
    constructed_ok = gap >= 1e-3
    elapsed = time.monotonic() - start
    ok = not left_viol and not right_viol and constructed_ok and elapsed < 30.0
    detail = (
        f"underline<=true violated on {len(left_viol)}/50, true<=overline violated on "
        f"{len(right_viol)}/50, constructed gap = {gap:.4f}, {elapsed:.1f}s"
    )
    assert verdict(3, ok, detail), (
        "the joint-vs-product epsilon ordering does not hold on random instances: "
        "redundant mechanisms make the shared-dataset composition a garbling of the "
        "independent product (two identity mechanisms on a 2-dataset mixing world give "
        "underline = 2*ln 9 > true = ln 9), and positively correlated loss components "
        f"beat their independent convolution at delta_g > 0; violations: {detail}"
    )


def test_criterion_4_basic_composition_failure():
    model = load_model("tests/data/basic_composition_violation.json")
    out = comp.basic_composition_check(model.world, list(model.mechanisms), [], delta_is=[0.0, 0.0])
    cj = comp.composed_joint(model.world, list(model.mechanisms), [])
    worst = max(
        hockey_stick(cj.pair(a, b), out["eps_sum"]) for (a, b) in sorted(model.world.adjacency)
    )
    margin = worst - out["delta_sum"]
    ok = (not out["holds"]) and margin >= 1e-3
    assert verdict(4, ok, f"composed delta exceeds summed budget by {margin:.4f}")


def test_criterion_5_marginal_preservation():
    n = 100_000
    crit = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))
    results = []
    for rho in (0.2, 0.5, 0.8):
        for family, xi in (("laplace", LaplaceMarginal(2.0)), ("gaussian", GaussianMarginal(1.5))):
            start = time.monotonic()
            spec = GaussianCopulaSpec(
                rho=rho, eta={"s0": 0.0, "s1": 1.0}, eps_c=1.0, delta_c=0.02,
                w=2 * math.log(2 / 0.02), xi1=xi, xi2=xi,
            )
            out = psedr_samples(spec, "s0", np.random.default_rng(SEED + 5), n)
            for key in ("v1", "v2"):
                v = np.sort(out[key])
                F = xi.cdf(v)
                ks = max(
                    np.abs(np.arange(1, n + 1) / n - F).max(),
                    np.abs(np.arange(n) / n - F).max(),
                )
                results.append((rho, family, key, float(ks), time.monotonic() - start))
    worst = max(r[3] for r in results)
    slowest = max(r[4] for r in results)
    ok = worst < crit and slowest < 10.0
    assert verdict(5, ok, f"max KS = {worst:.5f} vs critical {crit:.5f}, slowest config {slowest:.2f}s")


def test_criterion_6_coupling_additivity_and_bound():
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    world = World(("s0", "s1"), ("x0", "x1"), joint, default_adjacency(joint))
    tag_delta = 0.004
    spec = GaussianCopulaSpec(
        rho=0.1, eta={"s0": 0.0, "s1": 1.0}, eps_c=1.0, delta_c=tag_delta,
        w=2 * math.log(2 / tag_delta),
        xi1=LaplaceMarginal(2.0), xi2=GaussianMarginal(1.5),
    )
    dec = perturbed_decomposition(spec, world, ((0.0, 1.0), (0.0, 0.5)), 0, 1, bins=512)
    resid = float(np.abs(dec.total - (dec.unperturbed + dec.copula_term)).max())
    true = optimal_epsilon(dec.pair, 0.02)
    eps1, d1 = marginal_tight_budget(dec.marginal_pairs[0], tag_delta)
    eps2, d2 = marginal_tight_budget(dec.marginal_pairs[1], tag_delta)
    bound = conservative_bound(spec, eps1, d1, eps2, d2, 0.02)
    ok = resid <= 1e-6 and true <= bound + 1e-9
    assert verdict(
        6, ok,
        f"pointwise additivity residual = {resid:.2e} on 512 bins, "
        f"true = {true:.4f} <= bound = {bound:.4f}",
    )


def test_criterion_7_task1_certificates():
    world = World(("s0", "s1"), ("x0", "x1"),
                  np.full((2, 2), 0.25), default_adjacency(np.full((2, 2), 0.25)))
    noise = rr_style_mechanism(np.random.default_rng(0), 2, "n")
    from dcpkit.model import MechanismKernel

    flat = MechanismKernel("flat", ("0", "1"), np.full((2, 2), 0.5))
    hand = solve_task1(IcProblem(world=world, mechs=[flat], delta_g=0.0, tau_g=2.0,
                                 alpha_size=2))
    checks = [("hand", hand, world, [flat], 2.0, 0.0)]

    rng = np.random.default_rng(SEED + 7)
    for trial in range(10):
        w = dirichlet_world(rng, 2, int(rng.integers(2, 4)))
        mechs = random_mechanisms(rng, len(w.datasets), int(rng.integers(1, 3)))
        tau = float(rng.uniform(1.2, 4.0))
        delta_g = 0.0 if trial % 2 == 0 else float(min(1.0, rng.uniform(1.0, 2.0) / tau))
        sol = solve_task1(IcProblem(world=w, mechs=mechs, delta_g=delta_g, tau_g=tau,
                                    alpha_size=2))
        checks.append((f"rand{trial}", sol, w, mechs, tau, delta_g))

    certified, bad = 0, []
    for name, sol, w, mechs, tau, delta_g in checks:
        if not sol.certified:
            continue
        certified += 1
        post, _, live = posterior(w, mechs, [], sol.alpha)
        rep = pi_feasible(post, w, tau, delta_g, live)
        law = joint_with_alpha(w, mechs, [], sol.alpha)
        direct = max(hockey_stick(DistPair(law[a], law[b]), sol.eps_g)
                     for (a, b) in sorted(w.adjacency))
        if rep.max_residual > 1e-6 or direct > delta_g + 1e-6:
            bad.append(name)

    # unconstrained response converges to the exact posterior
    wu = checks[1][2]
    mechsu = checks[1][3]
    alpha = np.array([[0.7, 0.3], [0.4, 0.6]])
    post, weights, live = posterior(wu, mechsu, [], alpha)
    w_cells = (joint_with_alpha(wu, mechsu, [], alpha) * wu.marginal_secret[:, None]).T
    start_pi = np.full_like(post, 1.0 / post.shape[1])
    pi_free, _ = response_step(start_pi, w_cells, "log", 1e-12, 5000)
    tv = 0.5 * np.abs(pi_free[live] - post[live]).sum(axis=1).max()

    ok = hand.certified and not bad and tv <= 1e-6
    assert verdict(
        7, ok,
        f"hand instance certified = {hand.certified}, {certified} certified solutions all "
        f"re-verified, unconstrained-response posterior TV = {tv:.2e}",
    )


def test_criterion_8_task2_upper_bound():
    rng = np.random.default_rng(SEED + 8)
    worst_slack = math.inf
    for _ in range(20):
        world = dirichlet_world(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5)))
        mechs = random_mechanisms(rng, len(world.datasets), int(rng.integers(1, 3)))
        for delta_g in (0.0, 0.02):
            sol = solve_task2(IcProblem(world=world, mechs=mechs, delta_g=delta_g))
            slack = sol.eps_g - comp.true_opt(world, mechs, [], delta_g)
            worst_slack = min(worst_slack, slack)
    ok = worst_slack >= -1e-9
    assert verdict(8, ok, f"min(eps(tau*) - true_opt) = {worst_slack:.3e} over 40 certificates")


def test_criterion_9_audit_analog():
    start = time.monotonic()
    res_a = run_independent_experiment(seed=0)
    res_b = run_copula_experiment(seed=0)
    elapsed = time.monotonic() - start
    worst_gap = max(abs(r.gap) for r in res_a.rows + res_b.rows)
    worst_viol = max(
        max(r.roc_violation_composed, r.roc_violation_single) for r in res_a.rows + res_b.rows
    )
    ok = worst_gap <= 0.05 and worst_viol <= 1e-9 and elapsed < 60.0
    assert verdict(
        9, ok,
        f"max |auc gap| = {worst_gap:.4f} over {len(res_a.rows) + len(res_b.rows)} grid points, "
        f"max roc violation = {worst_viol:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_blackwell_cel():
    rng = np.random.default_rng(SEED + 10)
    trade_viol, cel_viol = [], []
    for idx in range(30):
        world = dirichlet_world(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5)))
        k = int(rng.integers(2, 4))
        mechs = [rr_style_mechanism(rng, len(world.datasets), f"m{i}") for i in range(k)]
        td = comp.tradeoff_dominance(world, mechs)
        if td["max_violation"] > 1e-9:
            trade_viol.append((idx, td["max_violation"]))
        cel = comp.cel_compare(world, mechs)
        if cel["cel_joint"] > cel["cel_product"] + 1e-12:
            cel_viol.append(idx)
    ok = not trade_viol and not cel_viol
    detail = (
        f"trade-off dominance violated on {len(trade_viol)}/30 (max {max((v for _, v in trade_viol), default=0):.4f}), "
        f"CEL ordering violated on {len(cel_viol)}/30"
    )
    assert verdict(10, ok, detail), (
        "pointwise trade-off dominance of the composed pair over the product pair is a "
        "partial order that generic instances do not satisfy (the curves cross; redundant "
        "mechanisms put the composed curve strictly above); the expected cross-entropy "
        f"half is a Gibbs-inequality fact and holds. {detail}"
    )
