"""Gaussian-copula noise coupling: sampling, marginal preservation, and cost.

Two additive-noise mechanisms draw their noises jointly: a latent Gaussian
pair (the first coordinate state-shifted, the second standard) is pushed
through probability-integral transforms and the target marginal inverses.
The delivered marginals are exactly the requested ones; the coupling's
privacy cost is a Gaussian mean-shift loss priced at (eps_c, delta_c).
"""

import math

import numpy as np

from dcpkit import (
    GaussianCopulaSpec,
    GaussianMarginal,
    LaplaceMarginal,
    World,
    bivariate_gaussian_cdf,
    conservative_bound,
    copula_cdf,
    copula_plrv,
    default_adjacency,
    optimal_epsilon,
    perturbed_decomposition,
    privacy_profile,
    psedr_samples,
)

delta_c = 0.02
spec = GaussianCopulaSpec(
    rho=0.5,
    eta={"s0": 0.0, "s1": 1.0},
    eps_c=1.0,
    delta_c=delta_c,
    w=2 * math.log(2 / delta_c),
    xi1=LaplaceMarginal(2.0),
    xi2=GaussianMarginal(1.5),
)
print("latent variance:", round(spec.var1, 3))
print("effective correlation of the delivered pair:",
      round(spec.effective_correlation, 4))

# Sampling: exact marginals, Gaussian dependence.
out = psedr_samples(spec, "s0", np.random.default_rng(7), 100_000)
n = out["v1"].size
for key, xi in (("v1", spec.xi1), ("v2", spec.xi2)):
    v = np.sort(out[key])
    F = xi.cdf(v)
    ks = max(np.abs(np.arange(1, n + 1) / n - F).max(),
             np.abs(np.arange(n) / n - F).max())
    print(f"KS distance of {key} from its target marginal: {ks:.5f}")

# The joint CDF of the delivered pair is the Gaussian copula at the
# effective correlation; compare against the sampled frequencies.
v1 = float(spec.xi1.ppf(0.3))
v2 = float(spec.xi2.ppf(0.6))
analytic = copula_cdf(spec, v1, v2)
empirical = float(np.mean((out["v1"] <= v1) & (out["v2"] <= v2)))
print(f"\njoint CDF at the (0.3, 0.6) quantiles: analytic {analytic:.5f}"
      f" vs sampled {empirical:.5f}")
print("bivariate normal CDF at the origin, rho=0.5:",
      bivariate_gaussian_cdf(0.0, 0.0, 0.5), "(exactly 1/3)")

# The coupling's own loss: a Gaussian mean-shift on the first latent,
# priced far below its (eps_c, delta_c) sticker.
world = World(("s0", "s1"), ("x0", "x1"),
              np.array([[0.5, 0.0], [0.0, 0.5]]),
              default_adjacency(np.array([[0.5, 0.0], [0.0, 0.5]])))
pld = copula_plrv(spec, world, 0, 1)
print(f"\ncoupling loss profile at eps_c: {privacy_profile(pld, spec.eps_c):.2e}"
      f" (sticker delta_c = {delta_c})")

# Full accounting of a coupled pair at moderate effective correlation: the
# pointwise loss additivity is exact, and the budget-level bound covers the
# true epsilon of the discretized coupled pair.
tag_delta = 0.004
spec_acct = GaussianCopulaSpec(
    rho=0.1, eta={"s0": 0.0, "s1": 1.0}, eps_c=1.0, delta_c=tag_delta,
    w=2 * math.log(2 / tag_delta),
    xi1=LaplaceMarginal(2.0), xi2=GaussianMarginal(1.5),
)
dec = perturbed_decomposition(spec_acct, world, ((0.0, 1.0), (0.0, 0.5)), 0, 1, bins=128)
resid = np.abs(dec.total - (dec.unperturbed + dec.copula_term)).max()
true = optimal_epsilon(dec.pair, 0.02)
# each mechanism's tight budget: its discretized pair's epsilon at the tag delta
e1, e2 = (optimal_epsilon(pair, tag_delta) for pair in dec.marginal_pairs)
bound = conservative_bound(spec_acct, e1, tag_delta, e2, tag_delta, 0.02)
print(f"\nadditivity residual on the output grid: {resid:.2e}")
print(f"true eps of the coupled pair at delta=0.02: {true:.4f}"
      f"  budget bound: {bound:.4f}")
