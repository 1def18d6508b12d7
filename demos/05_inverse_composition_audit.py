"""Inverse composition and the optimal-attacker audit.

Instead of proving worst-case budgets forward, design the added secret
channel so the attacker's exact posterior stays inside a ratio band; the
band certifies the whole composition.  Then audit: the likelihood-ratio
attacker's ROC against the certified budget, and a composed setup against a
single mechanism at the same budget.
"""

import math

import numpy as np

from dcpkit import (
    DistPair,
    IcProblem,
    MechanismKernel,
    World,
    certify,
    default_adjacency,
    epsilon_of_tau,
    lr_attack_roc,
    roc_bound_check,
    solve_task1,
    solve_task2,
)
from dcpkit.experiments import run_independent_experiment

world = World(("s0", "s1"), ("x0", "x1"),
              np.full((2, 2), 0.25), default_adjacency(np.full((2, 2), 0.25)))
flat = MechanismKernel("flat", ("0", "1"), np.full((2, 2), 0.5))

# Task 1: add a channel hitting the ratio budget tau=2 (eps = ln 3 here).
sol = solve_task1(IcProblem(world=world, mechs=[flat], delta_g=0.0,
                            tau_g=2.0, alpha_size=2))
print("designed channel:\n", np.round(sol.alpha, 4))
print("certified:", sol.certified, " eps_g:", round(sol.eps_g, 4),
      " (= ln 3:", round(math.log(3), 4), ")")
print("constraint residual:", f"{sol.feasibility:.2e}",
      " direct divergence check:", f"{sol.direct_check_delta:.2e}")

report = certify(world, [flat], [], sol.alpha, tau_g=2.0, delta_g=0.0)
print("three-stage certificate:",
      f"membership={report.stage1_pass}",
      f"tail-bound={report.stage2_pass}",
      f"direct={report.stage3_pass}")

# Task 2: tightest ratio certifying an existing composition.
rr = MechanismKernel("rr", ("0", "1"), np.array([[0.75, 0.25], [0.25, 0.75]]))
inv = World(("s0", "s1"), ("x0", "x1"),
            np.array([[0.5, 0.0], [0.0, 0.5]]),
            default_adjacency(np.array([[0.5, 0.0], [0.0, 0.5]])))
sol2 = solve_task2(IcProblem(world=inv, mechs=[rr], delta_g=0.0))
print(f"\ntask 2 on randomized response: tau* = {sol2.tau_g:.4f},"
      f" eps_g = {sol2.eps_g:.4f}")
print("sanity: eps(tau*) =", round(epsilon_of_tau(sol2.tau_g, inv), 4))

# Audit the designed channel: its ROC must respect the certified region.
law0 = sol.alpha[0]
law1 = sol.alpha[1]
roc = lr_attack_roc(DistPair(law0, law1))
print(f"\nattacker AUC against the designed channel: {roc.auc:.4f}")
print("ROC-region violation at the certificate:",
      f"{roc_bound_check(roc, sol.eps_g, 0.0):.2e}")

# The budget-filling experiment: a composition of four calibrated
# mechanisms plus a fill, audited against one mechanism at the full budget.
res = run_independent_experiment(seed=0)
print("\nbudget grid (eps_g): composed AUC vs single-mechanism AUC")
for row in res.rows:
    print(f"  {row.eps_g:>4}: {row.auc_composed:.4f} vs {row.auc_single:.4f}"
          f"  (gap {row.gap:+.4f}, design flag: {row.ic_flag})")
