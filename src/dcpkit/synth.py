"""Synthetic worlds, mechanisms, and budget calibrations for experiments:
noise scales calibrated to a target epsilon, and the one budget fill
(``fill_budget``) that both experiments' fills run."""

from __future__ import annotations

import functools
import math

import numpy as np

from .divergence import Law, _adjacent_pairs, _pair_deltas, monotone_root, monotone_roots
from .model import MechanismKernel, ModelError, World, _check_rows_stochastic, default_adjacency, mix_kernel

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
    """``_binned_noise`` on ``values`` as a function of the scales alone: the
    values' min and max, their column and the edge steps are taken once.
    ``values`` is one vector or a stack of them (K x datasets); the binner
    takes a list of scales, one for each vector ``which`` (a slice or an
    index list of the stack), and returns their rows as one (len(scales),
    datasets, bins) array from one CDF call, each the rows its vector gets
    alone at its scale."""
    values = np.asarray(values, dtype=float)
    stack = values.reshape(-1, values.shape[-1])
    ends = list(zip(stack.min(axis=1).tolist(), stack.max(axis=1).tolist()))
    columns, steps = stack[:, :, None], np.arange(bins + 1.0)

    def rows(scales, which=slice(None)) -> np.ndarray:
        picked = ends[which] if isinstance(which, slice) else [ends[k] for k in which]
        # each scale's edge step, lowest and highest edge, in Python floats, and the scale
        lines = []
        for scale, (v_min, v_max) in zip(scales, picked):
            lo, hi = v_min - span * scale, v_max + span * scale
            lines.append(((hi - lo) / bins, lo, hi, scale))
        lines = np.array(lines)
        # np.linspace(lo, hi, bins + 1) operation for operation, as its step is
        # not 0 for a scale that is not subnormal
        edges = steps * lines[:, :1] + lines[:, 1:2]
        edges[:, -1:] = lines[:, 2:3]
        at = cdf((edges[:, None, :] - columns[which]) / lines[:, 3:, None]).reshape(-1, bins + 1)
        rows = at[:, 1:] - at[:, :-1]
        rows[:, 0] += at[:, 0]
        rows[:, -1] += 1.0 - at[:, -1]
        return rows.reshape(len(lines), -1, bins)
    return rows


def _binned_noise(values, scale: float, bins: int, span: float, cdf) -> np.ndarray:
    """Rows of additive noise (standard CDF ``cdf``) on ``values``, binned on
    ``bins`` cells to ``span`` scales past them.  Edge cells absorb the
    tails so every row is exactly stochastic."""
    return _noise_binner(values, bins, span, cdf)([scale])[0]


def _laplace_cdf(x):
    """scipy's standard Laplace CDF, with an exp that cannot overflow."""
    e = 0.5 * np.exp(-np.abs(x))
    return np.where(x > 0, 1.0 - e, e)


@functools.cache
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


def _calibrate_noise_scales(world: World, noise, values_list, eps_target: float, delta: float,
                            bins: int) -> list[float]:
    """Scale the binned noise ``noise`` (``_GAUSSIAN`` or ``_LAPLACE``) on
    each query-value vector of ``values_list`` so the worst-pair tight
    epsilon at ``delta`` hits ``eps_target``; a target the bounds do not
    reach is refused.  The root finder reads log(delta reached / delta),
    the worst pair's hockey-stick delta at ``eps_target`` (-inf where it is
    0): tight epsilon <= ``eps_target`` exactly when that delta <=
    ``delta``, and the sum costs no sort.  It decreases in the scale, so
    each bracket ends at the least scale found within ``delta``, within a
    factor 1 + 1e-12 of one without, on the route ``audit`` reads.

    The K calibrations run in lockstep (``monotone_roots``): both bounds of
    all K in one step, then one step a round on the searches still running.
    A step bins its scales in one CDF call, mixes them (``mix_kernel``) and
    reads every mixture off one ``_pair_deltas`` sweep, so each scale is the
    one its calibration finds alone.  Every error is raised before the
    rounds: a vector's length, then delta, then a non-finite binned row
    and an unreachable target at the bracket ends."""
    n, k = len(world.datasets), len(values_list)
    if not k:
        raise ValueError("no query-value vector to calibrate")
    for values in values_list:
        if np.shape(values) != (n,):
            raise ModelError(f"{np.size(values)} query values, world has {n} datasets")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    binned = _noise_binner(values_list, bins, *noise)

    def excess(rows):
        """The values at the scales that ``rows`` (scales, datasets, bins) were binned at."""
        _check_rows_stochastic(rows.reshape(-1, bins), "binned noise kernel")
        mixed = mix_kernel(world, rows)
        _check_rows_stochastic(mixed.reshape(-1, bins), "per-secret law")
        return [-math.inf if r == 0.0 else math.log(r / delta) if delta > 0.0 else math.inf
                for r in map(max, _pair_deltas(mixed, _adjacent_pairs(world), eps_target))]

    lo, hi = SCALE_BOUNDS
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite value's rows are refused by excess
        rows = binned([lo] * k + [hi] * k, list(range(k)) * 2)
    ends = excess(rows)
    if any(v_lo < 0.0 or v_hi > 0.0 for v_lo, v_hi in zip(ends[:k], ends[k:])):
        raise ValueError("eps_target outside the reachable range for these bounds")
    found = monotone_roots(
        lambda which, scales: excess(binned(scales, slice(None) if len(which) == k else which)),
        [(lo, hi, v_lo, v_hi) for v_lo, v_hi in zip(ends[:k], ends[k:])],
        above=lambda v: v <= 0.0, tol=1e-12)
    return [scale for _, scale in found]


def _calibrate_noise_scale(world: World, noise, values, eps_target: float, delta: float,
                           bins: int) -> float:
    """``_calibrate_noise_scales`` on one query-value vector."""
    (scale,) = _calibrate_noise_scales(world, noise, [values], eps_target, delta, bins)
    return scale


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
