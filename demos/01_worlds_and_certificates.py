"""Worlds, effective mechanisms, and exact (eps, delta) certificates.

A world couples secrets to datasets through a joint table.  Mechanisms see
only the dataset; privacy is judged between the output distributions that
adjacent secrets induce.  This script builds a small world two ways, derives
the secret-facing kernels, and certifies a randomized-response mechanism.
"""

import math

import numpy as np

from dcpkit import (
    MechanismKernel,
    World,
    check_dcp,
    default_adjacency,
    effective_kernel,
    hockey_stick,
    is_invertible,
    optimal_epsilon,
)

# A mixing world: each secret usually sits on "its" dataset but sometimes
# on the other one, so the dataset does not fully determine the secret.
joint = np.array([[0.45, 0.05],
                  [0.05, 0.45]])
world = World(("healthy", "flagged"), ("record_a", "record_b"),
              joint, default_adjacency(joint))

print("secret marginals:", world.marginal_secret)
print("P(dataset | healthy):", world.conditional_dataset(0))
print("invertible?", is_invertible(world)[0])

# Randomized response on the dataset channel.
rr = MechanismKernel("rr", ("no", "yes"), np.array([[0.75, 0.25],
                                                    [0.25, 0.75]]))
eff = effective_kernel(world, rr)
print("\nsecret-facing kernel rows (mixing blunts the mechanism):")
for s, label in enumerate(world.secrets):
    print(f"  {label}: {eff.matrix[s]}")

# Exact certificates between the adjacent secrets.
pair = eff.pair(0, 1)
print("\ndelta at eps=0 (total variation):", hockey_stick(pair, 0.0))
print("tight eps at delta=0:", optimal_epsilon(pair, 0.0),
      "(the largest log-likelihood ratio)")
print("tight eps at delta=0.05:", optimal_epsilon(pair, 0.05))

report = check_dcp(world, rr, eps=math.log(3), delta=0.0)
print("\ncertify at (ln 3, 0):", report.holds, "worst pair:", report.worst_pair)
report = check_dcp(world, rr, eps=0.5, delta=0.0)
print("certify at (0.5, 0):", report.holds,
      f"worst delta {report.worst_delta:.4f} (budget too small)")

# On an invertible world the same mechanism is sharper: the effective
# kernel rows are the raw kernel rows, so the certificate is tight at ln 3.
ident_joint = np.array([[0.5, 0.0], [0.0, 0.5]])
ident_world = World(("healthy", "flagged"), ("record_a", "record_b"),
                    ident_joint, default_adjacency(ident_joint))
print("\ninvertible world:", is_invertible(ident_world))
print("tight eps there:",
      optimal_epsilon(effective_kernel(ident_world, rr).pair(0, 1), 0.0))
