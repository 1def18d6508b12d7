"""Task 1 of inverse composition: verdicts, optimality and the solver it replaced.

``tests/data/ic_task1_parent.json`` holds the verdict and loss of the
penalty-loop solver that the exact design replaced (commit 6e0dbc0) on the
fixed instance list ``instances()``.  It was written by running this module
as a script with that commit's ``src`` on the path::

    PYTHONPATH=<checkout of 6e0dbc0>/src python tests/test_ic_task1.py
"""

import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpkit import ic
from dcpkit.divergence import worst_pair
from dcpkit.model import World, load_model
from generators import dirichlet_world, random_mechanisms

ROOT = pathlib.Path(__file__).parent.parent
PARENT_FILE = ROOT / "tests" / "data" / "ic_task1_parent.json"
DEMOS = ("dependent_pair", "invertible_pair", "mixing_pair")


def instances() -> list:
    """(name, problem): the demo models at the golden ``dcp ic --task 1``
    arguments, then seeded random worlds of 2-3 secrets and 1-3 mechanisms
    at delta_g in {0, 0.05, 0.2} and tau_g from 0.7 to 3 times task 2's tau*."""
    out = []
    for stem in DEMOS:
        model = load_model(ROOT / "demos" / "models" / f"{stem}.json")
        for tau_g, delta_g in ((2.0, 0.0), (60.0, 0.02)):
            out.append((f"{stem}/tau{tau_g}/delta{delta_g}", ic.IcProblem(
                world=model.world, mechs=list(model.mechanisms),
                dependence=list(model.dependence), delta_g=delta_g, tau_g=tau_g)))
    rng = np.random.default_rng(20261018)
    for i in range(48):
        world = dirichlet_world(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        mechs = random_mechanisms(rng, len(world.datasets), int(rng.integers(1, 4)))
        delta_g = (0.0, 0.05, 0.2)[i % 3]
        factor = (0.7, 1.0, 1.5, 3.0)[(i // 3) % 4]
        tau_star = ic.solve_task2(ic.IcProblem(world=world, mechs=mechs, delta_g=delta_g)).tau_g
        out.append((f"random{i}", ic.IcProblem(
            world=world, mechs=mechs, delta_g=delta_g, tau_g=max(1.0, factor * tau_star),
            alpha_size=(2, 3)[(i // 12) % 2], loss="brier" if i % 5 == 4 else "log")))
    return out


def record(problem) -> dict:
    sol = ic.solve_task1(problem)
    return {"tau_g": problem.tau_g, "delta_g": problem.delta_g, "certified": sol.certified,
            "loss_value": sol.loss_value, "feasibility": sol.feasibility}


def constant_verdict(problem) -> bool:
    """The certificate of the composition alone (no added channel), from
    the public posterior and a direct divergence check."""
    world = problem.world
    post, _, live = ic.posterior(world, problem.mechs, problem.dependence, None)
    residual = ic.pi_feasible(post, world, problem.tau_g, problem.delta_g, live).max_residual
    law = ic.joint_with_alpha(world, problem.mechs, problem.dependence, None)
    direct = worst_pair(world, law, eps=ic.epsilon_of_tau(problem.tau_g, world)).value
    return residual <= 1e-6 and direct <= problem.delta_g + 1e-6


def test_no_parent_certificate_is_lost_and_no_loss_rises():
    parent = json.loads(PARENT_FILE.read_text())
    cases = instances()
    assert sorted(parent) == sorted(name for name, _ in cases)
    kept = 0
    for name, problem in cases:
        old = parent[name]
        assert (old["tau_g"], old["delta_g"]) == (problem.tau_g, problem.delta_g)
        sol = ic.solve_task1(problem)
        assert sol.certified == constant_verdict(problem), name
        if old["certified"]:
            kept += 1
            assert sol.certified, name
            assert sol.loss_value <= old["loss_value"] + 1e-12, name
    assert kept >= 30


def _instance_sequence(count):
    """The first ``count`` seeded random instances of 2-3 secrets."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        n_s, n_x, k = (int(rng.integers(lo, 4)) for lo in (2, 2, 1))
        world = dirichlet_world(rng, n_s, n_x)
        yield world, random_mechanisms(rng, len(world.datasets), k)


@pytest.mark.parametrize("index,delta_g", [(16, 0.0), (48, 0.0), (100, 0.2), (163, 0.05),
                                           (191, 0.05), (219, 0.2)])
def test_task1_certifies_at_tau_star(index, delta_g):
    # at tau_g = tau* the constant channel sits on the boundary and
    # certifies; the penalty loop returned residuals 3e-4 to 2e-2 here
    world, mechs = list(_instance_sequence(index + 1))[index]
    tau_star = ic.solve_task2(ic.IcProblem(world=world, mechs=mechs, delta_g=delta_g))
    assert tau_star.certified
    sol = ic.solve_task1(ic.IcProblem(world=world, mechs=mechs, delta_g=delta_g,
                                      tau_g=tau_star.tau_g))
    assert sol.certified
    assert sol.loss_value <= tau_star.loss_value + 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_secrets=st.integers(2, 4),
       factor=st.floats(0.7, 3.0), delta_g=st.sampled_from([0.0, 0.05, 0.2]),
       alpha_size=st.integers(1, 4), loss=st.sampled_from(["log", "brier"]))
def test_task1_verdict_is_the_constant_channels(seed, n_secrets, factor, delta_g, alpha_size, loss):
    rng = np.random.default_rng(seed)
    world = dirichlet_world(rng, n_secrets, int(rng.integers(2, 4)))
    mechs = random_mechanisms(rng, len(world.datasets), int(rng.integers(1, 3)))
    tau_star = ic.solve_task2(ic.IcProblem(world=world, mechs=mechs, delta_g=delta_g)).tau_g
    problem = ic.IcProblem(world=world, mechs=mechs, delta_g=delta_g,
                           tau_g=max(1.0, factor * tau_star), alpha_size=alpha_size, loss=loss)
    sol = ic.solve_task1(problem)
    assert sol.certified == constant_verdict(problem)
    assert sol.alpha.shape == (n_secrets, alpha_size)
    assert np.allclose(sol.alpha.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert sol.loss_value <= ic.solve_task1(ic.IcProblem(
        world=world, mechs=mechs, delta_g=delta_g, tau_g=problem.tau_g, alpha_size=1,
        loss=loss)).loss_value + 1e-12


def grid_best(world: World, law: np.ndarray, tau_g: float, delta_g: float, loss: str,
              points: int) -> float:
    """Least loss over every two-symbol channel [[q0, 1 - q0], [q1, 1 - q1]]
    with q0, q1 on a grid whose exact posterior meets the constraints (two
    secrets, both of positive prior).  Each column's outcomes carry their own
    posterior, so a channel's loss and residuals are its two columns'."""
    prior = world.marginal_secret
    q0, q1 = (g.ravel() for g in np.meshgrid(*[np.linspace(0.0, 1.0, points)] * 2))

    def column(v0, v1):
        cells = prior[None, :, None] * law[None, :, :] * np.stack([v0, v1], axis=1)[:, :, None]
        mass = cells.sum(axis=1)                                   # channels x outcomes
        with np.errstate(divide="ignore", invalid="ignore"):
            post = cells / mass[:, None, :]
            if loss == "log":
                value = -np.where(cells > 0.0, cells * np.log(post), 0.0).sum(axis=(1, 2))
            else:
                sq = (post**2).sum(axis=1, keepdims=True)
                value = np.where(cells > 0.0, cells * (sq - 2.0 * post + 1.0), 0.0).sum(axis=(1, 2))
        ratio = post / prior[None, :, None]
        bad = ratio < 1.0 / tau_g
        if delta_g > 0.0:
            bad = bad.any(axis=1) | ((post**2 / prior[None, :, None]).sum(axis=1) > delta_g * tau_g)
        else:
            bad = (bad | (ratio > tau_g)).any(axis=1)
        return value, (bad & (mass > 0.0)).any(axis=1)

    value0, bad0 = column(q0, q1)
    value1, bad1 = column(1.0 - q0, 1.0 - q1)
    return float(np.where(bad0 | bad1, np.inf, value0 + value1).min())


def test_task1_beats_the_two_secret_grid():
    rng = np.random.default_rng(20261019)
    designed = 0
    for trial in range(12):
        world = dirichlet_world(rng, 2, int(rng.integers(2, 4)))
        mechs = random_mechanisms(rng, len(world.datasets), int(rng.integers(1, 3)))
        delta_g = (0.0, 0.05, 0.2)[trial % 3]
        loss = ("log", "brier")[trial % 2]
        tau_star = ic.solve_task2(ic.IcProblem(world=world, mechs=mechs, delta_g=delta_g)).tau_g
        tau_g = tau_star * (1.2, 2.0)[trial % 2]
        sol = ic.solve_task1(ic.IcProblem(world=world, mechs=mechs, delta_g=delta_g,
                                          tau_g=tau_g, loss=loss))
        assert sol.certified
        law = ic.joint_with_alpha(world, mechs, [], None)
        assert sol.loss_value <= grid_best(world, law, tau_g, delta_g, loss, 201) + 1e-9
        designed += sol.diagnostics["design"] == "extreme-rays"
    assert designed == 12


def test_task1_dependent_pair_beats_the_801_grid():
    model = load_model(ROOT / "demos" / "models" / "dependent_pair.json")
    problem = ic.IcProblem(world=model.world, mechs=list(model.mechanisms),
                           dependence=list(model.dependence), delta_g=0.0, tau_g=2.0)
    sol = ic.solve_task1(problem)
    law = ic.joint_with_alpha(model.world, problem.mechs, problem.dependence, None)
    best = grid_best(model.world, law, 2.0, 0.0, "log", 801)
    assert best == pytest.approx(0.598489, abs=1e-6)
    assert sol.certified and sol.loss_value <= best + 1e-9


if __name__ == "__main__":
    table = {name: record(problem) for name, problem in instances()}
    PARENT_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(table)} instances to {PARENT_FILE}\n")
