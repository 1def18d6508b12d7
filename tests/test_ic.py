import contextlib
import io
import json
import math
import pathlib

import numpy as np
import pytest

from dcpkit import composition, ic
from dcpkit.cli import main
from dcpkit.composition import true_opt
from dcpkit.model import MechanismKernel, World, default_adjacency, load_model
from generators import dirichlet_world, random_mechanisms
from bisection import full_bisection
from response_step import response_step


def _world(joint):
    joint = np.asarray(joint, dtype=float)
    return World(
        tuple(f"s{i}" for i in range(joint.shape[0])),
        tuple(f"x{j}" for j in range(joint.shape[1])),
        joint,
        default_adjacency(joint),
    )


# ---------------------------------------------------------------- epsilon_of_tau


def test_epsilon_of_tau_examples(uniform_world):
    assert ic.epsilon_of_tau(1.0, uniform_world) == 0.0
    # oracle: direct formula log(1 + (tau-1)/P*)
    assert ic.epsilon_of_tau(2.0, uniform_world) == pytest.approx(math.log(3), abs=1e-12)
    single = _world([[0.7, 0.3]])
    assert ic.epsilon_of_tau(2.0, single) == pytest.approx(math.log(2), abs=1e-12)


def test_epsilon_of_tau_monotone(uniform_world):
    taus = [1.0, 1.5, 2.0, 5.0, 20.0]
    vals = [ic.epsilon_of_tau(t, uniform_world) for t in taus]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    skew = _world([[0.2, 0.2], [0.3, 0.3]])  # P* = 0.4
    assert ic.epsilon_of_tau(2.0, skew) > ic.epsilon_of_tau(2.0, uniform_world) * 0  # defined
    assert ic.epsilon_of_tau(2.0, skew) > math.log(3)  # smaller P* -> larger eps


def test_epsilon_of_tau_rejects_bad_tau(uniform_world):
    with pytest.raises(ValueError):
        ic.epsilon_of_tau(0.5, uniform_world)


def test_tau_of_epsilon_round_trip(uniform_world):
    for eps in (0.0, 0.3, 1.0, 3.0):
        tau = ic.tau_of_epsilon(eps, uniform_world)
        assert ic.epsilon_of_tau(tau, uniform_world) == pytest.approx(eps, abs=1e-12)


def test_pi_set_nonempty_boundary():
    assert ic.pi_set_nonempty(2.0, 0.0)
    assert ic.pi_set_nonempty(50.0, 0.02)
    assert not ic.pi_set_nonempty(49.0, 0.02)
    assert ic.pi_set_nonempty(1.0, 1.0)


# ---------------------------------------------------------------- posterior


def test_posterior_uninformative_is_prior(uniform_world, noise_mechanism):
    alpha = np.full((2, 2), 0.5)
    post, _, live = ic.posterior(uniform_world, [noise_mechanism], [], alpha)
    assert np.allclose(post[live], 0.5, atol=1e-15)


def test_posterior_revealing_is_one_hot(invertible_world):
    ident = MechanismKernel("id", ("0", "1"), np.eye(2))
    post, _, live = ic.posterior(invertible_world, [ident], [], None)
    assert np.allclose(np.sort(post[live], axis=1)[:, 1], 1.0)


def test_posterior_matches_hand_bayes(mixing_world_2x2, rr_mechanism):
    # oracle: enumerate Bayes by hand over (y, a) cells
    alpha = np.array([[0.6, 0.4], [0.3, 0.7]])
    post, weights, live = ic.posterior(mixing_world_2x2, [rr_mechanism], [], alpha)
    eff = np.array([[0.7, 0.3], [0.3, 0.7]])  # effective RR rows on this world
    prior = np.array([0.5, 0.5])
    for y in range(2):
        for a in range(2):
            idx = y * 2 + a
            w = prior * eff[:, y] * alpha[:, a]
            assert np.allclose(post[idx], w / w.sum(), atol=1e-12)
            assert weights[idx] == pytest.approx(w.sum(), abs=1e-15)


def test_posterior_rejects_all_dead():
    world = _world([[0.5, 0.0], [0.0, 0.5]])
    dead = np.zeros((2, 1))
    with pytest.raises(ValueError):
        ic.posterior(world, [], [], dead)


# ---------------------------------------------------------------- feasibility


def test_pi_feasible_prior_rows(uniform_world):
    rows = np.full((4, 2), 0.5)
    rep = ic.pi_feasible(rows, uniform_world, 1.5, 0.0)
    assert rep.feasible
    # delta > 0 regime: the expectation constraint equals 1 at the prior
    rep = ic.pi_feasible(rows, uniform_world, 1.5, 0.5)
    assert rep.max_expectation == pytest.approx(1.0 - 0.5 * 1.5)
    assert not rep.feasible


def test_pi_feasible_one_hot_ratio(uniform_world):
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    rep = ic.pi_feasible(rows, uniform_world, 1.5, 0.0)
    assert not rep.feasible
    assert rep.max_upper == pytest.approx(1.0 - 1.5 * 0.5)  # ratio 2 > 1.5


def test_pi_feasible_slack_expectation(uniform_world):
    rows = np.array([[0.9, 0.1], [0.5, 0.5]])
    rep = ic.pi_feasible(rows, uniform_world, 10.0, 1.0)
    assert rep.feasible  # lower bound met, expectation far below delta*tau


def test_pi_feasible_rejects_bad_tau(uniform_world):
    with pytest.raises(ValueError):
        ic.pi_feasible(np.full((1, 2), 0.5), uniform_world, 0.9, 0.0)


# ---------------------------------------------------------------- scoring rule


def test_spsr_loss_uniform_prediction(uniform_world, noise_mechanism):
    alpha = np.full((2, 2), 0.5)
    pi = np.full((4, 2), 0.5)
    val = ic.spsr_loss(pi, uniform_world, [noise_mechanism], [], alpha, "log")
    assert val == pytest.approx(math.log(2), abs=1e-12)


def test_spsr_posterior_is_unique_minimizer(mixing_world_2x2, rr_mechanism):
    rng = np.random.default_rng(41)
    alpha = np.array([[0.6, 0.4], [0.3, 0.7]])
    post, _, live = ic.posterior(mixing_world_2x2, [rr_mechanism], [], alpha)
    for loss in ("log", "brier"):
        base = ic.spsr_loss(post, mixing_world_2x2, [rr_mechanism], [], alpha, loss)
        for _ in range(20):
            noise = rng.normal(scale=0.05, size=post.shape)
            other = np.clip(post + noise, 1e-6, None)
            other /= other.sum(axis=1, keepdims=True)
            if np.allclose(other, post, atol=1e-9):
                continue
            assert ic.spsr_loss(other, mixing_world_2x2, [rr_mechanism], [], alpha, loss) > base


def test_spsr_loss_zero_cell_sentinel(uniform_world, noise_mechanism):
    alpha = np.full((2, 2), 0.5)
    pi = np.array([[1.0, 0.0]] * 4)
    assert ic.spsr_loss(pi, uniform_world, [noise_mechanism], [], alpha, "log") == math.inf


# ---------------------------------------------------------------- solver: task 1


def test_task1_hand_instance(uniform_world, noise_mechanism):
    problem = ic.IcProblem(world=uniform_world, mechs=[noise_mechanism],
                           delta_g=0.0, tau_g=2.0, alpha_size=2)
    sol = ic.solve_task1(problem)
    assert sol.certified
    assert sol.eps_g == pytest.approx(math.log(3), abs=1e-12)
    assert sol.feasibility <= 1e-6
    assert sol.direct_check_delta <= 1e-6
    # the optimal feasible channel sits at the ratio boundary (0.75/0.25)
    assert sol.loss_value <= math.log(2)
    assert sol.loss_value == pytest.approx(0.5623, abs=0.02)


def test_task1_infeasible_budget(invertible_world):
    reveal = MechanismKernel("id", ("0", "1"), np.array([[0.99, 0.01], [0.01, 0.99]]))
    problem = ic.IcProblem(world=invertible_world, mechs=[reveal],
                           delta_g=0.0, tau_g=1.01, alpha_size=2)
    sol = ic.solve_task1(problem)
    assert not sol.certified
    assert sol.feasibility > 1e-6
    # oracle: exhaustive grid over binary channels confirms no alpha helps
    best = math.inf
    for q0 in np.linspace(0, 1, 21):
        for q1 in np.linspace(0, 1, 21):
            alpha = np.array([[q0, 1 - q0], [q1, 1 - q1]])
            post, _, live = ic.posterior(invertible_world, [reveal], [], alpha)
            rep = ic.pi_feasible(post, invertible_world, 1.01, 0.0, live)
            best = min(best, rep.max_residual)
    assert best > 1e-6


def test_task1_alpha_size_one_reduces_to_certification(invertible_world):
    reveal = MechanismKernel("id", ("0", "1"), np.array([[0.99, 0.01], [0.01, 0.99]]))
    sol = ic.solve_task1(ic.IcProblem(world=invertible_world, mechs=[reveal],
                                      delta_g=0.0, tau_g=120.0, alpha_size=1))
    assert sol.alpha.shape == (2, 1)
    assert sol.certified
    sol2 = ic.solve_task2(ic.IcProblem(world=invertible_world, mechs=[reveal], delta_g=0.0))
    assert sol.eps_g >= sol2.eps_g - 1e-9


def test_task1_requires_tau(uniform_world, noise_mechanism):
    with pytest.raises(ValueError, match="tau"):
        ic.solve_task1(ic.IcProblem(world=uniform_world, mechs=[noise_mechanism], delta_g=0.0))


def test_task1_brier_random_instances():
    rng = np.random.default_rng(46)
    certified = 0
    for trial in range(6):
        world = dirichlet_world(rng, 2, int(rng.integers(2, 4)))
        mechs = random_mechanisms(rng, len(world.datasets), 1)
        sol = ic.solve_task1(ic.IcProblem(world=world, mechs=mechs, delta_g=0.0,
                                          tau_g=float(rng.uniform(1.5, 4.0)),
                                          alpha_size=2, loss="brier"))
        if sol.certified:
            certified += 1
            assert sol.feasibility <= 1e-6
            assert sol.direct_check_delta <= 1e-6
    assert certified >= 2


def test_brier_pi_step_converges_to_posterior(mixing_world_2x2, rr_mechanism):
    # the quadratic rule is also strictly proper: the unconstrained
    # response step lands on the exact posterior
    alpha = np.array([[0.6, 0.4], [0.3, 0.7]])
    post, _, live = ic.posterior(mixing_world_2x2, [rr_mechanism], [], alpha)
    law = ic.joint_with_alpha(mixing_world_2x2, [rr_mechanism], [], alpha)
    weights = (law * mixing_world_2x2.marginal_secret[:, None]).T
    start = np.full_like(post, 0.5)
    pi_free, _ = response_step(start, weights, "brier", 1e-13, 5000)
    tv = 0.5 * np.abs(pi_free[live] - post[live]).sum(axis=1).max()
    assert tv <= 1e-6


def test_task1_certified_solutions_verify_from_scratch():
    rng = np.random.default_rng(43)
    certified = 0
    for trial in range(10):
        world = dirichlet_world(rng, 2, int(rng.integers(2, 4)))
        mechs = random_mechanisms(rng, len(world.datasets), int(rng.integers(1, 3)))
        tau = float(rng.uniform(1.2, 4.0))
        problem = ic.IcProblem(world=world, mechs=mechs, delta_g=0.0, tau_g=tau,
                               alpha_size=2)
        sol = ic.solve_task1(problem)
        if not sol.certified:
            continue
        certified += 1
        post, _, live = ic.posterior(world, mechs, [], sol.alpha)
        rep = ic.pi_feasible(post, world, tau, 0.0, live)
        assert rep.max_residual <= 1e-6
        law = ic.joint_with_alpha(world, mechs, [], sol.alpha)
        from dcpkit.divergence import DistPair, hockey_stick

        direct = max(hockey_stick(DistPair(law[a], law[b]), sol.eps_g)
                     for (a, b) in sorted(world.adjacency))
        assert direct <= 1e-6
    assert certified >= 3  # the feasible fraction certifies


# ---------------------------------------------------------------- solver: task 2


def test_task2_uninformative(uniform_world, noise_mechanism):
    sol = ic.solve_task2(ic.IcProblem(world=uniform_world, mechs=[noise_mechanism], delta_g=0.0))
    assert sol.tau_g == pytest.approx(1.0, abs=1e-9)
    assert sol.eps_g == pytest.approx(0.0, abs=1e-9)


def test_task2_rr_dominates_true_opt(invertible_world, rr_mechanism):
    sol = ic.solve_task2(ic.IcProblem(world=invertible_world, mechs=[rr_mechanism], delta_g=0.0))
    t = true_opt(invertible_world, [rr_mechanism], [], 0.0)
    assert sol.eps_g >= max(t, math.log(3)) - 1e-9


def test_task2_delta_one(uniform_world, noise_mechanism):
    sol = ic.solve_task2(ic.IcProblem(world=uniform_world, mechs=[noise_mechanism], delta_g=1.0))
    assert sol.tau_g == pytest.approx(1.0, abs=1e-9)


def test_task2_soundness_random_instances():
    rng = np.random.default_rng(44)
    for trial in range(12):
        world = dirichlet_world(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        mechs = random_mechanisms(rng, len(world.datasets), 2)
        for delta_g in (0.0, 0.02):
            sol = ic.solve_task2(ic.IcProblem(world=world, mechs=mechs, delta_g=delta_g))
            assert sol.eps_g >= true_opt(world, mechs, [], delta_g) - 1e-9


def _tau_by_bisection(world, mechs, delta_g):
    """Reference: doubling, then bisection on the monotone feasibility test."""
    post, _, live = ic.posterior(world, mechs, [], np.ones((len(world.secrets), 1)))

    def feasible(tau):
        return ic.pi_feasible(post, world, tau, delta_g, live).max_residual <= 0.0

    hi = 1.0
    if not feasible(hi):
        hi = 2.0
        while not feasible(hi):
            hi *= 2.0
        _, hi = full_bisection(feasible, hi / 2.0, hi, False, 200, tol=1e-12)
    return hi


def test_task2_closed_form_matches_bisection():
    rng = np.random.default_rng(45)
    checked = 0
    for trial in range(40):
        world = dirichlet_world(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        mechs = random_mechanisms(rng, len(world.datasets), int(rng.integers(1, 4)))
        for delta_g in (0.0, 0.01, 0.05, 0.5):
            tau = ic.solve_task2(ic.IcProblem(world=world, mechs=mechs, delta_g=delta_g)).tau_g
            ref = _tau_by_bisection(world, mechs, delta_g)
            assert tau == pytest.approx(ref, rel=1e-11)
            checked += tau > 1.0
    assert checked >= 40  # most instances need tau above the prior's own 1


def test_task2_refuses_an_infinite_or_capped_tau(invertible_world, rr_mechanism):
    reveal = MechanismKernel("id", ("0", "1"), np.eye(2))  # posterior 0 on a secret
    for mech, delta_g in ((reveal, 0.0), (reveal, 0.02)):
        with pytest.raises(ValueError, match="cap"):
            ic.solve_task2(ic.IcProblem(world=invertible_world, mechs=[mech], delta_g=delta_g))
    # P/pi = 0.5 / 1e-7 = 5e6 lies past the cap
    near = MechanismKernel("near", ("0", "1"), np.array([[1 - 1e-7, 1e-7], [1e-7, 1 - 1e-7]]))
    with pytest.raises(ValueError, match="cap"):
        ic.solve_task2(ic.IcProblem(world=invertible_world, mechs=[near], delta_g=0.0))
    # below the cap but above the last doubling step under it, 2^19
    near = MechanismKernel("near", ("0", "1"), np.array([[1 - 7e-7, 7e-7], [7e-7, 1 - 7e-7]]))
    sol = ic.solve_task2(ic.IcProblem(world=invertible_world, mechs=[near], delta_g=0.0))
    assert 2.0**19 < sol.tau_g <= ic.TAU_CAP and sol.certified


# ---------------------------------------------------------------- certification


def test_certify_stages_on_certified_solution(uniform_world, noise_mechanism):
    sol = ic.solve_task1(ic.IcProblem(world=uniform_world, mechs=[noise_mechanism],
                                      delta_g=0.0, tau_g=2.0, alpha_size=2))
    rep = ic.certify(uniform_world, [noise_mechanism], [], sol.alpha, 2.0, 0.0)
    assert rep.certified and rep.stage1_pass and rep.stage2_pass and rep.stage3_pass
    assert not rep.internal_error


def test_certify_sufficient_condition_gap():
    # skewed prior: the rare secret's posterior ratio bursts the band while
    # the likelihood ratio stays well inside eps(tau); the ratio route is
    # only a sufficient condition
    world = _world([[0.1, 0.0], [0.0, 0.9]])
    mech = MechanismKernel("rr", ("0", "1"), np.array([[0.8, 0.2], [0.2, 0.8]]))
    tau = 2.2
    eps = ic.epsilon_of_tau(tau, world)  # log(1 + 1.2/0.1) = log 13
    rep = ic.certify(world, [mech], [], None, tau, 0.0)
    assert not rep.stage1_pass
    assert rep.stage3_pass
    assert rep.sufficient_condition_gap
    assert eps > true_opt(world, [mech], [], 0.0)


def test_certify_two_sided_band_matches_ratio_formula(uniform_world, noise_mechanism):
    # at delta 0 the band is tau^{-1} P <= pi <= tau P; an exact-posterior
    # channel at ratio e^{eps} certifies tau = e^{eps}
    alpha = np.array([[0.75, 0.25], [0.25, 0.75]])
    rep = ic.certify(uniform_world, [noise_mechanism], [], alpha, math.exp(math.log(3)), 0.0)
    assert rep.stage1_pass and rep.certified


def test_feasible_posterior_tail_mass_chain():
    # whenever the exact posterior satisfies the constraint set, Markov's
    # inequality caps the posterior-ratio tail mass beyond tau by delta on
    # every outcome, and the lower bound rules out the downside tail
    rng = np.random.default_rng(45)
    checked = 0
    for trial in range(40):
        world = dirichlet_world(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        mechs = random_mechanisms(rng, len(world.datasets), int(rng.integers(1, 3)))
        post, _, live = ic.posterior(world, mechs, [], None)
        tau = float(rng.uniform(1.1, 60.0))
        delta = float(rng.uniform(0.005, 0.8))
        rep = ic.pi_feasible(post, world, tau, delta, live)
        if not rep.feasible:
            continue
        checked += 1
        prior = world.marginal_secret
        rows = post[live]
        ratio = rows / prior[None, :]
        tails = (rows * (ratio > tau * (1 + 1e-12))).sum(axis=1)
        assert tails.max() <= delta + 1e-12
        assert (ratio >= 1.0 / tau - 1e-12).all()
    assert checked >= 5


# The posterior's readers as they read an outcomes x secrets posterior laid
# out outcome-major (C order); ``model._posterior`` now computes it
# secrets-major and hands out the transpose, and every reader must give the
# same floats, bit for bit.


def _outcome_major_posterior(prior, law):
    weights = law * prior[:, None]
    marginal = weights.sum(axis=0)
    live = marginal > 0.0
    post = np.empty((law.shape[1], prior.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(weights.T, marginal[:, None], out=post)
    post[~live] = prior
    return post, live


def _outcome_major_support(prior, post, live):
    rows = post if live.all() else post[live]
    support = prior > 0.0
    return (prior, rows) if support.all() else (prior[support], rows[:, support])


def _outcome_major_residual(prior, post, live, tau, delta_g):
    prior, rows = _outcome_major_support(prior, post, live)
    max_lower = float((prior / tau - rows.min(axis=0)).max())
    if delta_g > 0.0:
        return max(max_lower, float(((rows**2 / prior[None, :]).sum(axis=1) - delta_g * tau).max()))
    return max(max_lower, float((rows.max(axis=0) - tau * prior).max()))


def _outcome_major_tau(prior, post, live, delta_g):
    prior, rows = _outcome_major_support(prior, post, live)
    with np.errstate(divide="ignore"):
        tau = max(1.0, float((prior / rows).max()))
    if delta_g > 0.0:
        return max(tau, float((rows**2 / prior).sum(axis=1).max()) / delta_g)
    return max(tau, float((rows / prior).max()))


def _outcome_major_tail(prior, post, live, tau):
    prior, rows = _outcome_major_support(prior, post[live], np.ones(int(live.sum()), bool))
    ratio = rows / prior[None, :]
    outside = (ratio > tau * (1.0 + 1e-12)) | (ratio < (1.0 - 1e-12) / tau)
    return float((rows * outside).sum(axis=1).max())


def _outcome_major_loss(pi, prior, law, loss):
    weights = (law * prior[:, None]).T
    if loss == "log":
        hot = weights > 0.0
        pi_hot = pi[hot]
        if np.any(pi_hot <= 0.0):
            return math.inf
        return float(-(weights[hot] * np.log(pi_hot)).sum())
    sq = (pi**2).sum(axis=1, keepdims=True)
    return float((weights * (sq - 2.0 * pi + 1.0)).sum())


def _hex(x):
    return np.asarray(x, dtype=float).tobytes().hex()


def test_posterior_readers_match_the_outcome_major_formulas():
    # 2, 3 and 9 secrets (numpy sums 8 or more terms pairwise along a C row),
    # dense mechanisms, a repeated one (lumped outcomes spread back by
    # ``per_outcome``) and one with a zero column (dead outcomes) or a column
    # live on one dataset (zero-weight cells: the log loss's masked route)
    rng = np.random.default_rng(2024)
    checked = {"log": 0, "brier": 0, "dead": 0, "masked": 0}
    for trial in range(36):
        n_s, n_x = (2, 3, 9)[trial % 3], int(rng.integers(3, 5))
        joint = rng.dirichlet(np.ones(n_s * n_x)).reshape(n_s, n_x)
        if trial % 4 == 3:  # s0 never meets x0: the sparse output 2 has zero weight under s0 only
            joint[0, 0] = 0.0
        world = _world(joint / joint.sum())
        mechs = random_mechanisms(rng, n_x, int(rng.integers(1, 3)))
        if trial % 2:
            mechs.append(MechanismKernel("twin", mechs[0].outputs, mechs[0].kernel))
        if trial % 4 >= 2:  # output 2 dead, or live on x0 alone
            sparse = rng.dirichlet(np.ones(3), size=n_x)
            sparse[int(trial % 4 == 3):, 2] = 0.0
            mechs.append(MechanismKernel("sparse", ("0", "1", "2"), sparse / sparse.sum(axis=1, keepdims=True)))
        prior = world.marginal_secret
        value = composition.Composition.of(world, mechs, [])
        lumped = value.lumped.matrix
        post, live = _outcome_major_posterior(prior, lumped)
        dense, dense_live = _outcome_major_posterior(prior, value.joint.matrix)
        for delta_g in (0.0, 0.02, 0.3):
            tau = _outcome_major_tau(prior, post, live, delta_g)
            if tau > ic.TAU_CAP:
                with pytest.raises(ValueError, match="cap"):
                    ic.solve_task2(ic.IcProblem(world=world, mechs=mechs, delta_g=delta_g))
                continue
            for loss in ("log", "brier"):
                sol = ic.solve_task2(ic.IcProblem(world=world, mechs=mechs, delta_g=delta_g, loss=loss))
                pi = np.take(post, value.index, axis=0) if value.repeats else post
                assert _hex(sol.pi) == _hex(pi)
                assert _hex(sol.tau_g) == _hex(tau)
                assert _hex(sol.feasibility) == _hex(_outcome_major_residual(prior, post, live, tau, delta_g))
                assert _hex(sol.loss_value) == _hex(_outcome_major_loss(post, prior, lumped, loss))
                assert _hex(ic.spsr_loss(dense, world, mechs, [], None, loss)) == _hex(
                    _outcome_major_loss(dense, prior, value.joint.matrix, loss))
                checked[loss] += 1
            rep = ic.certify(world, mechs, [], None, tau, delta_g)
            assert _hex(rep.stage1_residual) == _hex(
                _outcome_major_residual(prior, dense, dense_live, tau, delta_g))
            assert _hex(rep.stage2_max_tail) == _hex(_outcome_major_tail(prior, dense, dense_live, tau))
        checked["dead"] += not dense_live.all()
        checked["masked"] += not (value.joint.matrix > 0.0).all()
    assert min(checked.values()) >= 5, checked


def test_solvers_build_the_composed_joint_once(monkeypatch):
    model = load_model(pathlib.Path(__file__).parent.parent / "demos" / "models" / "mixing_pair.json")
    builds = []
    build = composition.lumped_law
    monkeypatch.setattr(composition, "lumped_law", lambda *args: builds.append(1) or build(*args))
    monkeypatch.setattr(composition, "_SLOT", [None])
    world, mechs, dependence = model.world, list(model.mechanisms), list(model.dependence)
    for tau_g, solve in ((3.0, ic.solve_task1), (None, ic.solve_task2)):
        sol = solve(ic.IcProblem(world=world, mechs=mechs, dependence=dependence, tau_g=tau_g))
        # the public helpers agree with the solver's law, and build none of their own
        post, _, _ = ic.posterior(world, mechs, dependence, sol.alpha)
        assert np.array_equal(post, sol.pi)
        assert ic.spsr_loss(sol.pi, world, mechs, dependence, sol.alpha) == sol.loss_value
    assert len(builds) == 1


def test_task1_ignores_an_appended_zero_prior_secret(tmp_path):
    demo = pathlib.Path(__file__).parent.parent / "demos" / "models" / "dependent_pair.json"
    model = json.loads(demo.read_text())
    model["secrets"].append("ghost")
    model["joint"].append([0.0, 0.0])
    ghost = tmp_path / "ghost.json"
    ghost.write_text(json.dumps(model))
    payloads = []
    for path in (demo, ghost):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--model", str(path), "ic", "--task", "1", "--tau", "20", "--delta-g", "0.1"]) == 0
        payloads.append(json.loads(out.getvalue().split("\n", 1)[1]))
    plain, with_ghost = payloads
    for key in ("feasibility", "direct_check_delta", "eps_g", "certified"):
        assert with_ghost[key] == plain[key]
    assert with_ghost["alpha"] == plain["alpha"] + [[0.5, 0.5]]
    assert [row[:2] for row in with_ghost["pi"]] == plain["pi"]
    assert all(row[2] == 0.0 for row in with_ghost["pi"])
