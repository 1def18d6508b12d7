"""Privacy-loss distributions and the three-way loss decomposition.

The loss variable log(p/q) under p carries everything the (eps, delta)
family can ask: its profile delta(eps) reproduces the divergence exactly,
and independent mechanisms compose by convolution.  On a confounded world
the composed loss additionally splits into an independent part, a declared
mechanism-dependence part, and a part induced purely by the secret/dataset
coupling.
"""

import numpy as np

from dcpkit import (
    DistPair,
    MechanismKernel,
    World,
    convolve,
    decompose_plrv,
    default_adjacency,
    epsilon_for_delta,
    hockey_stick,
    pld_from_pair,
    privacy_profile,
)

rr_pair = DistPair(np.array([0.75, 0.25]), np.array([0.25, 0.75]))
pld = pld_from_pair(rr_pair)
print("loss atoms:", pld.losses, "masses:", pld.p_mass)

print("\nprofile vs direct divergence:")
for eps in (0.0, 0.5, 1.0):
    print(f"  eps={eps}: profile={privacy_profile(pld, eps):.6f}"
          f"  hockey-stick={hockey_stick(rr_pair, eps):.6f}")

two = convolve(pld, pld)
print("\ntwo independent runs, convolved atoms:", np.round(two.losses, 4))
print("tight eps of the pair at delta=0.02:", epsilon_for_delta(two, 0.02))

# The decomposition on a mixing world: two independent mechanisms become
# coupled through the shared dataset, and the world term picks that up.
joint = np.array([[0.45, 0.05], [0.05, 0.45]])
world = World(("s0", "s1"), ("x0", "x1"), joint, default_adjacency(joint))
rr = MechanismKernel("rr", ("0", "1"), np.array([[0.75, 0.25], [0.25, 0.75]]))

dec = decompose_plrv(world, [rr, rr], [], 0, 1)
fin = dec.finite
print("\nper-outcome losses on the mixing world (finite outcomes):")
print("  total:      ", np.round(dec.total[fin], 4))
print("  independent:", np.round(dec.independent_term[fin], 4))
print("  world term: ", np.round(dec.world_term[fin], 4))
resid = np.abs(dec.total[fin] - (dec.world_term + dec.dependence_term
                                 + dec.independent_term)[fin]).max()
print("additivity residual:", resid)

# On an invertible world the world term vanishes identically.
ident = np.array([[0.5, 0.0], [0.0, 0.5]])
world_inv = World(("s0", "s1"), ("x0", "x1"), ident, default_adjacency(ident))
dec_inv = decompose_plrv(world_inv, [rr, rr], [], 0, 1)
print("\ninvertible world, max |world term|:",
      np.abs(dec_inv.world_term[dec_inv.finite]).max())
