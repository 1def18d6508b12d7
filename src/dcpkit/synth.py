"""Synthetic worlds, mechanisms, and budget calibrations for experiments
and property tests."""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .divergence import monotone_root, worst_pair
from .model import MechanismKernel, World, default_adjacency, effective_kernel, is_invertible, join_per_secret

# the bracket of every noise-scale calibration and of the secret-channel fill
SCALE_BOUNDS = (1e-3, 1e4)


def _world(joint: np.ndarray) -> World:
    """Secrets s0.. and datasets x0.. on the rows and columns of ``joint``, default adjacency."""
    return World(
        secrets=tuple(f"s{i}" for i in range(joint.shape[0])),
        datasets=tuple(f"x{j}" for j in range(joint.shape[1])),
        joint=joint,
        adjacency=default_adjacency(joint),
    )


def mixing_world(lam: float, n_secrets: int = 2, n_datasets: int = 4,
                 prior=None) -> World:
    """Interpolate dataset conditionals between one-hot (lam=0) and uniform.

    Secret i pins dataset i at lam = 0; lam = 1 erases all dataset
    information about the secret.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {lam}")
    if n_datasets < n_secrets:
        raise ValueError("need at least one dataset per secret")
    prior = np.full(n_secrets, 1.0 / n_secrets) if prior is None else np.asarray(prior, float)
    cond = np.full((n_secrets, n_datasets), lam / n_datasets)
    for s in range(n_secrets):
        cond[s, s] += 1.0 - lam
    joint = prior[:, None] * cond
    return _world(joint)


def dirichlet_world(rng: np.random.Generator, n_secrets: int, n_datasets: int) -> World:
    for _ in range(200):
        joint = rng.dirichlet(np.ones(n_secrets * n_datasets)).reshape(n_secrets, n_datasets)
        world = _world(joint)
        if world.adjacency and not is_invertible(world)[0]:
            return world
    raise RuntimeError("could not draw a usable world")


def invertible_world(rng: np.random.Generator, n_secrets: int, n_datasets: int | None = None) -> World:
    """Random prior, one-hot dataset conditionals."""
    n_datasets = n_secrets if n_datasets is None else n_datasets
    prior = rng.dirichlet(np.ones(n_secrets) * 5.0)
    perm = rng.permutation(n_datasets)[:n_secrets]
    joint = np.zeros((n_secrets, n_datasets))
    for s in range(n_secrets):
        joint[s, perm[s]] = prior[s]
    return _world(joint)


def rr_style_mechanism(rng: np.random.Generator, n_datasets: int, name: str = "rr") -> MechanismKernel:
    """Binary kernel with a random per-dataset flip probability."""
    c = rng.uniform(0.05, 0.45, size=n_datasets)
    side = rng.integers(0, 2, size=n_datasets)
    rows = np.where(side[:, None], np.stack([c, 1 - c], axis=1), np.stack([1 - c, c], axis=1))
    return MechanismKernel(name, ("0", "1"), rows)


def random_mechanisms(rng: np.random.Generator, n_datasets: int, k: int) -> list[MechanismKernel]:
    mechs = []
    for i in range(k):
        ny = int(rng.integers(2, 4))  # 2 or 3 outputs
        kern = rng.dirichlet(np.ones(ny), size=n_datasets)
        mechs.append(MechanismKernel(f"m{i}", tuple(map(str, range(ny))), kern))
    return mechs


def triangulating_instance(noise: float = 0.15) -> tuple[World, list[MechanismKernel]]:
    """Mechanisms individually fuzzy that jointly pin down the dataset.

    This is the composition regime where ignoring the secret/dataset
    coupling strictly underestimates the loss.
    """
    joint = 0.5 * np.array([[0.2, 0.3, 0.3, 0.2], [0.05, 0.3, 0.3, 0.35]])
    world = _world(joint)
    hard1 = np.array([[0, 1], [0, 1], [1, 0], [1, 0]], dtype=float)
    hard2 = np.array([[0, 1], [1, 0], [0, 1], [1, 0]], dtype=float)
    soft = lambda k: k * (1 - 2 * noise) + noise
    m1 = MechanismKernel("half1", ("0", "1"), soft(hard1) if noise > 0 else hard1)
    m2 = MechanismKernel("half2", ("0", "1"), soft(hard2) if noise > 0 else hard2)
    return world, [m1, m2]


def _binned_noise(values, scale: float, bins: int, span: float, cdf) -> np.ndarray:
    """Rows of additive noise (standard CDF ``cdf``) on ``values``, binned on
    ``bins`` cells to ``span`` scales past them.  Edge cells absorb the
    tails so every row is exactly stochastic."""
    values = np.asarray(values, dtype=float)
    edges = np.linspace(values.min() - span * scale, values.max() + span * scale, bins + 1)
    cdf = cdf((edges[None, :] - values[:, None]) / scale)
    rows = np.diff(cdf, axis=1)
    rows[:, 0] += cdf[:, 0]
    rows[:, -1] += 1.0 - cdf[:, -1]
    return rows


def _laplace_cdf(x):
    """scipy's standard Laplace CDF, with an exp that cannot overflow."""
    e = 0.5 * np.exp(-np.abs(x))
    return np.where(x > 0, 1.0 - e, e)


def binned_gaussian_kernel(values, sigma: float, bins: int = 33,
                           name: str = "gauss") -> MechanismKernel:
    """Additive Gaussian noise on per-dataset query values, binned to 6 sigmas past them."""
    rows = _binned_noise(values, sigma, bins, 6.0, special.ndtr)
    return MechanismKernel(name, tuple(f"b{i}" for i in range(bins)), rows)


def binned_laplace_kernel(values, scale: float, bins: int = 33,
                          name: str = "laplace") -> MechanismKernel:
    rows = _binned_noise(values, scale, bins, 8.0, _laplace_cdf)
    return MechanismKernel(name, tuple(f"b{i}" for i in range(bins)), rows)


def _calibrate_noise_scale(world: World, kernel, values, eps_target: float, delta: float,
                           bins: int) -> float:
    """Scale the noise of ``kernel(values, scale, bins)`` so the worst-pair
    tight epsilon at ``delta`` hits ``eps_target``; a target the bounds do
    not reach is refused.  Epsilon decreases in the scale, so the root
    finder's bracket ends at the least scale found with epsilon <=
    ``eps_target``, within a factor 1 + 1e-12 of one without."""
    def excess(scale):
        mech = kernel(values, scale, bins)
        return effective_kernel(world, mech).worst(world, delta=delta).value - eps_target

    lo, hi = SCALE_BOUNDS
    v_lo, v_hi = excess(lo), excess(hi)
    if v_lo < 0.0 or v_hi > 0.0:
        raise ValueError("eps_target outside the reachable range for these bounds")
    _, hi = monotone_root(excess, lo, hi, v_lo, v_hi, above=lambda v: v <= 0.0, tol=1e-12)
    return hi


def calibrate_gaussian_mechanism(
    world: World, values, eps_target: float, delta: float,
    bins: int = 33, name: str = "gauss",
) -> MechanismKernel:
    """The binned Gaussian mechanism whose worst-pair tight epsilon at ``delta`` is ``eps_target``."""
    sigma = _calibrate_noise_scale(world, binned_gaussian_kernel, values, eps_target, delta, bins)
    return binned_gaussian_kernel(values, sigma, bins, name=name)


def secret_gaussian_channel(eta, sigma: float, bins: int = 33) -> np.ndarray:
    """Row-stochastic secret-to-output kernel: binned Gaussian around eta(s)."""
    kern = binned_gaussian_kernel(eta, sigma, bins, name="alpha")
    return np.asarray(kern.kernel)


def calibrate_alpha_fill(
    world: World,
    base_law: np.ndarray,
    eta,
    eps_g: float,
    delta_g: float,
    bins: int = 33,
) -> tuple[np.ndarray, float]:
    """Most informative secret-channel fill that keeps the full composition
    inside (eps_g, delta_g) by the direct divergence check.

    ``base_law`` is the composed per-secret law of the existing mechanisms;
    returns (alpha, sigma); sigma = inf means even the widest channel in
    bounds cannot be certified.
    """
    def excess(sigma):
        alpha = secret_gaussian_channel(eta, sigma, bins)
        law = join_per_secret(base_law, alpha)
        return worst_pair(world, law, eps=eps_g).value - delta_g

    lo, hi = SCALE_BOUNDS
    v_hi = excess(hi)
    if v_hi > 0.0:
        return secret_gaussian_channel(eta, hi, bins), math.inf
    v_lo = excess(lo)
    if v_lo <= 0.0:
        return secret_gaussian_channel(eta, lo, bins), lo
    _, hi = monotone_root(excess, lo, hi, v_lo, v_hi, above=lambda v: v <= 0.0, tol=1e-12)
    return secret_gaussian_channel(eta, hi, bins), hi
