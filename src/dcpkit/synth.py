"""Synthetic worlds, mechanisms, and budget calibrations for experiments
and property tests: noise scales calibrated to a target epsilon, and the
one budget fill (``fill_budget``) that both experiments' fills run."""

from __future__ import annotations

import math

import numpy as np

from .divergence import Law, _exp_times, monotone_root
from .model import MechanismKernel, ModelError, World, _check_rows_stochastic, default_adjacency, is_invertible

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


def _noise_binner(values, bins: int, span: float, cdf):
    """``_binned_noise`` on ``values`` as a function of the scale alone: the
    values' min, max and column and the edge steps are taken once."""
    values = np.asarray(values, dtype=float)
    v_min, v_max, column = values.min(), values.max(), values[:, None]
    steps = np.arange(bins + 1.0)

    def rows(scale: float) -> np.ndarray:
        lo, hi = v_min - span * scale, v_max + span * scale
        # np.linspace(lo, hi, bins + 1) operation for operation, as its step is
        # not 0 for a scale that is not subnormal
        edges = steps * ((hi - lo) / bins) + lo
        edges[-1] = hi
        at = cdf((edges - column) / scale)
        rows = at[:, 1:] - at[:, :-1]
        rows[:, 0] += at[:, 0]
        rows[:, -1] += 1.0 - at[:, -1]
        return rows
    return rows


def _binned_noise(values, scale: float, bins: int, span: float, cdf) -> np.ndarray:
    """Rows of additive noise (standard CDF ``cdf``) on ``values``, binned on
    ``bins`` cells to ``span`` scales past them.  Edge cells absorb the
    tails so every row is exactly stochastic."""
    return _noise_binner(values, bins, span, cdf)(scale)


def _laplace_cdf(x):
    """scipy's standard Laplace CDF, with an exp that cannot overflow."""
    e = 0.5 * np.exp(-np.abs(x))
    return np.where(x > 0, 1.0 - e, e)


def _special():
    """``scipy.special``, imported on the first call that needs a normal CDF
    or quantile: its import takes longer than ``import dcpkit`` without it,
    and a ``dcp`` call on a model without a copula section needs neither."""
    from scipy import special
    return special


# the noise families as (span in scales past the values, standard CDF)
_GAUSSIAN = (6.0, lambda x: _special().ndtr(x))
_LAPLACE = (8.0, _laplace_cdf)


def binned_gaussian_kernel(values, sigma: float, bins: int = 33,
                           name: str = "gauss") -> MechanismKernel:
    """Additive Gaussian noise on per-dataset query values, binned to 6 sigmas past them."""
    rows = _binned_noise(values, sigma, bins, *_GAUSSIAN)
    return MechanismKernel(name, tuple(f"b{i}" for i in range(bins)), rows)


def binned_laplace_kernel(values, scale: float, bins: int = 33,
                          name: str = "laplace") -> MechanismKernel:
    rows = _binned_noise(values, scale, bins, *_LAPLACE)
    return MechanismKernel(name, tuple(f"b{i}" for i in range(bins)), rows)


def _calibrate_noise_scale(world: World, noise, values, eps_target: float, delta: float,
                           bins: int) -> float:
    """Scale the binned noise ``noise`` (``_GAUSSIAN`` or ``_LAPLACE``) on
    ``values`` so the worst-pair tight epsilon at ``delta`` hits
    ``eps_target``; a target the bounds do not reach is refused.  The root
    finder reads log(delta reached / delta), the worst pair's hockey-stick
    delta at ``eps_target`` (-inf where it is 0): tight epsilon <=
    ``eps_target`` exactly when that delta <= ``delta``, and the sum costs
    no sort.  It decreases in the scale, so the bracket ends at the least
    scale found within ``delta``, within a factor 1 + 1e-12 of one without,
    on the route ``audit`` reads.

    What the scale does not move is taken once: the binner's values and
    edge steps, each secret's P(x|s) (``mix_kernel``'s uniform row for a
    zero-prior secret) and the adjacent pairs' indices.  A step bins, mixes
    and checks the rows as ``effective_kernel`` does; on a mixture with
    every entry positive it sums (p - e^eps q)+ of all pairs in one array,
    and any other mixture, whose dead outcomes ``Law`` cuts before summing,
    goes through ``Law.worst``: the value is that law's, bit for bit."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(world.datasets),):
        raise ModelError(f"{values.size} query values, world has {len(world.datasets)} datasets")
    binned = _noise_binner(values, bins, *noise)
    marg = world.marginal_secret
    conds = [world.joint[s] / marg[s] if marg[s] > 0 else None for s in range(len(world.secrets))]
    uniform = np.full(bins, 1.0 / bins)
    s0, s1 = np.array(sorted(world.adjacency), dtype=np.intp).reshape(-1, 2).T

    def excess(scale):
        rows = binned(scale)
        _check_rows_stochastic(rows, "binned noise kernel")
        mixed = np.array([uniform if cond is None else cond @ rows for cond in conds])
        _check_rows_stochastic(mixed, "per-secret law")
        if s0.size and mixed.min() > 0.0:
            gaps = mixed[s0] - _exp_times(eps_target, mixed[s1])
            reached = float(np.maximum(gaps, 0.0, out=gaps).sum(axis=1).max())
        else:
            reached = Law(mixed).worst(world, eps=eps_target).value
        if reached == 0.0:
            return -math.inf
        return math.log(reached / delta) if delta > 0.0 else math.inf

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
    sigma = _calibrate_noise_scale(world, _GAUSSIAN, values, eps_target, delta, bins)
    return binned_gaussian_kernel(values, sigma, bins, name=name)


def fill_budget(world: World, eps_g: float, delta_g: float, joined, fast, safe: float,
                free: float, tol: float) -> tuple[Law, float]:
    """Fill what is left of (``eps_g``, ``delta_g``): the fill parameter x
    nearest ``free`` whose joined law ``Law(joined(x))`` keeps the worst
    pair's delta at ``eps_g`` within ``delta_g`` by the direct check (a
    delta of exactly ``delta_g`` passes).  The joined law's delta is
    monotone in x, lowest at ``safe``.

    The direct check judges ``safe``, then ``free``; between them the root
    finder reads ``fast(x)``, the joined law's worst delta read off the
    fixed factor's loss profiles (``Law.worst_joined``), to within a factor
    1 + ``tol`` of x.  From the end it returns, x steps toward ``safe`` by
    that factor until the direct check passes it.  Returns (law, x), law the
    one the direct check judged at x; x = inf when even ``safe`` fails, with
    the law judged there.
    """
    judged = {}

    def direct(x):
        judged[x] = law = Law(joined(x))
        return law.worst(world, eps=eps_g).value - delta_g

    v_safe = direct(safe)
    if v_safe > 0.0:
        return judged[safe], math.inf
    v_free = direct(free)
    if v_free <= 0.0:
        return judged[free], free

    excess = lambda x: fast(x) - delta_g
    # the root finder's bracket ascends: with safe on top, the passing values are above the switch
    if safe > free:
        _, x = monotone_root(excess, free, safe, v_free, v_safe, above=lambda v: v <= 0.0, tol=tol)
        factor, toward = 1.0 + tol, min
    else:
        x, _ = monotone_root(excess, safe, free, v_safe, v_free, above=lambda v: v > 0.0, tol=tol)
        factor, toward = 1.0 / (1.0 + tol), max
    while x != safe and direct(x) > 0.0:
        x = toward(x * factor, safe)
    return judged[x], x
