"""Gaussian-copula noise coupling: sampling, CDFs, and loss accounting.

The sampling pipeline draws a correlated latent Gaussian pair, pushes it
through probability-integral transforms, and inverts the target marginal
CDFs, so the delivered noise pair has exactly the requested marginals with
a Gaussian dependence structure.  The accounting side discretizes the
coupling's state-dependent loss variable and the coupled output pair so the
exact finite-alphabet machinery can run on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .composition import dp_optcomp
from .divergence import DistPair, LossProfile
from .model import World, check_cap
from .synth import _binned_noise, _laplace_cdf, _special

_SQRT2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT2PI = float(np.log(_SQRT2PI))


# ----------------------------------------------------------------------
# marginal noise distributions


class _LocationScaleMarginal:
    """A noise marginal at (loc, scale), computed on y = (v - loc) / scale.

    The subclasses' closed forms are scipy.stats' own, in the same order of
    operations, so every value and its type (np.float64 for a scalar) match
    ``stats.laplace``/``stats.norm`` at (loc, scale) bit for bit.
    """

    def __init__(self, scale: float, loc: float = 0.0):
        if not 0.0 < scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {scale}")
        if not math.isfinite(loc):
            raise ValueError(f"loc must be finite, got {loc}")
        self.scale = float(scale)
        self.loc = float(loc)

    def _standard(self, v):
        return (np.asarray(v, dtype=float) - self.loc) / self.scale

    @property
    def spread(self) -> float:
        return self.scale


class LaplaceMarginal(_LocationScaleMarginal):
    """Laplace(loc, scale) noise marginal."""

    family = "laplace"

    def cdf(self, v):
        return _laplace_cdf(self._standard(v))[()]   # a scalar comes back as np.float64, as from scipy

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.where(u > 0.5, -np.log(2 * (1 - u)), np.log(2 * u))
        return y * self.scale + self.loc

    def pdf(self, v):
        return 0.5 * np.exp(-np.abs(self._standard(v))) / self.scale

    def logpdf(self, v):
        # log of the density, not log 0.5 - |y|: it reaches -inf where exp underflows
        with np.errstate(divide="ignore"):
            return np.log(0.5 * np.exp(-np.abs(self._standard(v)))) - np.log(self.scale)


class GaussianMarginal(_LocationScaleMarginal):
    """Normal(loc, sigma^2) noise marginal."""

    family = "gaussian"

    def __init__(self, sigma: float, loc: float = 0.0):
        super().__init__(sigma, loc)

    def cdf(self, v):
        return _special().ndtr(self._standard(v))

    def ppf(self, u):
        return _special().ndtri(u) * self.scale + self.loc

    def pdf(self, v):
        y = self._standard(v)
        return np.exp(-y**2 / 2.0) / _SQRT2PI / self.scale

    def logpdf(self, v):
        return _norm_logpdf(self._standard(v)) - np.log(self.scale)


def _norm_logpdf(t):
    """The standard normal log-density."""
    return -t**2 / 2.0 - _LOG_SQRT2PI


class EmpiricalMarginal:
    """Piecewise-linear CDF through the given (value, cdf) points."""

    family = "empirical"

    def __init__(self, values, cdf_values):
        xs = np.asarray(values, dtype=float)
        cs = np.asarray(cdf_values, dtype=float)
        if xs.ndim != 1 or xs.shape != cs.shape or xs.size < 2:
            raise ValueError("need matching 1-d value/cdf arrays with >= 2 points")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(cs))):
            raise ValueError("values and cdf must be finite")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(cs) < 0):
            raise ValueError("values must increase strictly and cdf must be non-decreasing")
        if abs(cs[0]) > 1e-9 or abs(cs[-1] - 1.0) > 1e-9:
            raise ValueError("cdf must start at 0 and end at 1")
        self.xs, self.cs = xs, cs

    def cdf(self, v):
        return np.interp(v, self.xs, self.cs)

    def ppf(self, u):
        # flat segments invert to their left endpoint
        keep = np.concatenate([[True], np.diff(self.cs) > 0])
        return np.interp(np.asarray(u, dtype=float), self.cs[keep], self.xs[keep])

    @property
    def spread(self) -> float:
        return float(self.xs[-1] - self.xs[0]) / 4.0


def marginal_from_spec(spec: Mapping):
    family = spec.get("family")
    if family == "laplace":
        return LaplaceMarginal(scale=float(spec["scale"]), loc=float(spec.get("loc", 0.0)))
    if family == "gaussian":
        return GaussianMarginal(sigma=float(spec["sigma"]), loc=float(spec.get("loc", 0.0)))
    if family == "empirical":
        pts = np.asarray(spec["points"], dtype=float)
        return EmpiricalMarginal(pts[:, 0], pts[:, 1])
    raise ValueError(f"unknown marginal family {family!r}")


# ----------------------------------------------------------------------
# copula specification


@dataclass(frozen=True)
class GaussianCopulaSpec:
    """Parameters of the state-dependent Gaussian noise coupling.

    ``eta`` maps state labels to real values; its sensitivity over the
    adjacency (or over all label pairs when no world is in play) sets the
    latent variance var1 = w^2 (c_sen / eps_c)^2.  ``rho_prime`` overrides
    the bivariate-normal correlation used on the CDF side; by default the
    correlation implied by the sampling pipeline is used.
    """

    rho: float
    eta: Mapping[str, float]
    eps_c: float
    delta_c: float
    w: float
    xi1: object = field(default_factory=lambda: GaussianMarginal(1.0))
    xi2: object = field(default_factory=lambda: GaussianMarginal(1.0))
    c_sen: float | None = None
    rho_prime: float | None = None
    var1_floor: float | None = None
    adjacency_labels: frozenset[tuple[str, str]] | None = None

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0 or self.rho == 0.0:
            raise ValueError(f"rho must lie in (-1, 1) excluding 0, got {self.rho}")
        if self.rho_prime is not None and not -1.0 < self.rho_prime < 1.0:
            raise ValueError(f"rho_prime must lie in (-1, 1), got {self.rho_prime}")
        for name in ("eps_c", "w", "c_sen", "var1_floor"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not all(math.isfinite(v) for v in self.eta.values()):
            raise ValueError(f"eta values must be finite, got {dict(self.eta)}")
        if self.eps_c < 0:
            raise ValueError(f"eps_c must be >= 0, got {self.eps_c}")
        if self.var1_floor is not None and not self.var1_floor > 0:
            raise ValueError(f"var1_floor must be positive, got {self.var1_floor}")
        if not 0.0 < self.delta_c < 1.0:
            raise ValueError(f"delta_c must lie in (0, 1), got {self.delta_c}")
        if self.w < 2.0 * math.log(2.0 / self.delta_c) - 1e-12:
            raise ValueError(
                f"w = {self.w} violates w >= 2 log(2/delta_c) = {2.0 * math.log(2.0 / self.delta_c)}"
            )
        computed = self._computed_sensitivity()
        if self.c_sen is None:
            object.__setattr__(self, "c_sen", computed)
        elif abs(self.c_sen - computed) > 1e-12:
            raise ValueError(
                f"declared c_sen = {self.c_sen} does not match the eta sensitivity {computed}"
            )

    def with_eps_c(self, eps_c: float) -> GaussianCopulaSpec:
        """This spec at ``eps_c``: eps_c is checked as the constructor checks
        it, and the rest of the validation and the sensitivity carry over."""
        if not math.isfinite(eps_c):
            raise ValueError(f"eps_c must be finite, got {eps_c}")
        if eps_c < 0:
            raise ValueError(f"eps_c must be >= 0, got {eps_c}")
        spec = object.__new__(GaussianCopulaSpec)
        spec.__dict__.update(self.__dict__, eps_c=eps_c)
        return spec

    def _computed_sensitivity(self) -> float:
        labels = list(self.eta)
        if self.adjacency_labels is not None:
            pairs = self.adjacency_labels
        else:
            pairs = [(a, b) for a in labels for b in labels if a != b]
        if not pairs:
            return 0.0
        return max(abs(self.eta[a] - self.eta[b]) for a, b in pairs)

    @property
    def var1(self) -> float:
        if self.c_sen == 0.0:
            if self.var1_floor is None:
                raise ValueError(
                    "eta is constant over the adjacency (c_sen = 0); supply var1_floor"
                )
            return self.var1_floor
        if self.eps_c == 0.0:
            return math.inf
        try:
            v = self.w**2 * (self.c_sen / self.eps_c) ** 2
        except OverflowError:
            v = math.inf
        # latent states a million sigmas apart are numerically disjoint
        if not math.isfinite(v) or math.sqrt(v) < 1e-6 * self.c_sen:
            raise ValueError(f"degenerate variance var1 = {v}")
        return v

    @property
    def effective_correlation(self) -> float:
        """Correlation of the standardized latent pair the pipeline produces."""
        if self.rho_prime is not None:
            return self.rho_prime
        v = self.var1
        return self.rho * math.sqrt(v) / math.sqrt(self.rho**2 * v + (1.0 - self.rho**2))

    def eta_of(self, label: str) -> float:
        try:
            return float(self.eta[label])
        except KeyError:
            raise ValueError(f"eta has no value for state {label!r}") from None


def copula_spec_from_mapping(raw: Mapping, adjacency_labels=None) -> GaussianCopulaSpec:
    """Build a spec from the model file's ``copula`` section."""
    return GaussianCopulaSpec(
        rho=float(raw["rho"]),
        eta={str(k): float(v) for k, v in raw["eta"].items()},
        eps_c=float(raw["eps_c"]),
        delta_c=float(raw["delta_c"]),
        w=float(raw["w"]),
        xi1=marginal_from_spec(raw["xi1"]),
        xi2=marginal_from_spec(raw["xi2"]),
        c_sen=raw.get("c_sen"),
        rho_prime=raw.get("rho_prime"),
        var1_floor=raw.get("var1_floor"),
        adjacency_labels=adjacency_labels,
    )


# ----------------------------------------------------------------------
# bivariate normal CDF


def bivariate_gaussian_cdf(a: float, b: float, rho: float) -> float:
    """P[Z_a <= a, Z_b <= b] for standard bivariate normal, |rho| < 1.

    Adaptive quadrature of phi(z) * Phi((b - rho z)/sqrt(1 - rho^2)) over
    z <= a; absolute error well below 1e-10.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    from scipy import integrate  # only this quadrature needs it: kept off dcp's start-up

    if math.isinf(a) and a > 0:
        return float(_special().ndtr(b))
    if math.isinf(b) and b > 0:
        return float(_special().ndtr(a))
    if (math.isinf(a) and a < 0) or (math.isinf(b) and b < 0):
        return 0.0
    root = math.sqrt(1.0 - rho * rho)

    def integrand(z):
        return math.exp(-0.5 * z * z) / _SQRT2PI * _special().ndtr((b - rho * z) / root)

    val, _ = integrate.quad(integrand, -np.inf, a, epsabs=1e-12, epsrel=1e-12, limit=200)
    return float(min(max(val, 0.0), 1.0))


# ----------------------------------------------------------------------
# pseudo-random correlated sample generation


def psedr_map(spec: GaussianCopulaSpec, state: str, z1, z2):
    """Deterministic (z1, z2) -> (u1, u2, v1, v2) transform for one state.

    Standardization is state-dependent: u1 comes from the CDF of
    N(eta(state), var1), so the delivered marginals are exactly xi1, xi2.
    """
    eta = spec.eta_of(state)
    v = spec.var1
    sd1 = math.sqrt(v)
    sd2 = math.sqrt(spec.rho**2 * v + (1.0 - spec.rho**2))
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    u1 = _special().ndtr((z1 - eta) / sd1)
    zhat = spec.rho * z1 + math.sqrt(1.0 - spec.rho**2) * z2
    u2 = _special().ndtr((zhat - spec.rho * eta) / sd2)
    return u1, u2, np.asarray(spec.xi1.ppf(u1)), np.asarray(spec.xi2.ppf(u2))


def psedr_samples(spec: GaussianCopulaSpec, state: str, rng: np.random.Generator, n: int):
    """Draw n correlated noise pairs; returns arrays z1, z2, u1, u2, v1, v2."""
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n}")
    eta = spec.eta_of(state)
    z1 = eta + math.sqrt(spec.var1) * rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    u1, u2, v1, v2 = psedr_map(spec, state, z1, z2)
    return {"z1": z1, "z2": z2, "u1": u1, "u2": u2, "v1": v1, "v2": v2}


def copula_cdf(spec: GaussianCopulaSpec, v1: float, v2: float) -> float:
    """Joint CDF of the delivered noise pair at (v1, v2).

    The pipeline's latent pair is standard bivariate normal at the
    effective correlation, so the joint CDF is that normal's CDF taken at
    the normal scores of the marginal CDF values.
    """
    u1 = float(np.clip(spec.xi1.cdf(v1), 0.0, 1.0))
    u2 = float(np.clip(spec.xi2.cdf(v2), 0.0, 1.0))
    if u1 in (0.0, 1.0) or u2 in (0.0, 1.0):
        # rectangle degenerates: grounded / marginal limits
        if u1 == 0.0 or u2 == 0.0:
            return 0.0
        if u1 == 1.0:
            return u2
        return u1
    t1 = float(_special().ndtri(u1))
    t2 = float(_special().ndtri(u2))
    return bivariate_gaussian_cdf(t1, t2, spec.effective_correlation)


# ----------------------------------------------------------------------
# loss accounting


def copula_plrv(
    spec: GaussianCopulaSpec,
    world: World,
    s0: int,
    s1: int,
    bins: int = 512,
) -> LossProfile:
    """Loss distribution contributed by the state-dependent coupling.

    The coupling's loss variable between adjacent states reduces to the
    Gaussian mean-shift loss on the first latent coordinate (the second
    coordinate's contribution cancels identically), discretized on a
    ``bins``-cell grid spanning 8 standard deviations past the two state
    means; tail mass, at most 2 Phi(-8) ~ 1.2e-15 a state, is folded into
    the edge cells.
    """
    if (s0, s1) not in world.adjacency:
        raise ValueError(f"({s0},{s1}) is not an adjacent pair")
    eta0 = spec.eta_of(world.secrets[s0])
    eta1 = spec.eta_of(world.secrets[s1])
    if eta0 == eta1:
        return DistPair(np.ones(1), np.ones(1)).profile
    p, q = _binned_noise((eta0, eta1), math.sqrt(spec.var1), bins, 8.0, _special().ndtr)
    return DistPair(p, q).profile


@dataclass(frozen=True)
class PerturbedDecomposition:
    """Pointwise loss split for the coupled pair on an output grid."""

    total: np.ndarray
    unperturbed: np.ndarray
    copula_term: np.ndarray
    grid1: np.ndarray
    grid2: np.ndarray
    pair: DistPair            # discretized coupled outputs under s0 vs s1
    marginal_pairs: tuple     # discretized per-mechanism output pairs


def _shift_pair(spec: GaussianCopulaSpec, eta: float, mu_ref: float) -> tuple[float, float]:
    v = spec.var1
    a = (eta - mu_ref) / math.sqrt(v)
    return a, spec.effective_correlation * a


def _coupled_log_density(spec, t1, t2, m1, m2):
    r = spec.effective_correlation
    d1 = t1 - m1
    d2 = t2 - m2
    quad = (d1 * d1 - 2.0 * r * d1 * d2 + d2 * d2) / (1.0 - r * r)
    return -0.5 * quad - math.log(2.0 * math.pi) - 0.5 * math.log(1.0 - r * r)


def perturbed_decomposition(
    spec: GaussianCopulaSpec,
    world: World,
    query_maps: tuple,
    s0: int,
    s1: int,
    bins: int = 64,
) -> PerturbedDecomposition:
    """Discretized accounting model of the coupled pair between two secrets.

    Requires each of s0, s1 to pin down a dataset (conditional one-hot);
    the joint output density then factorizes as the state-shifted coupling
    factor times the independent noise product, and the three loss
    functions are evaluated on the grid from separate code paths so their
    additivity is a genuine numerical check.
    """
    _check_densities(spec.xi1, spec.xi2)
    f1, f2 = (np.asarray(q, dtype=float) for q in query_maps)
    shifts_f = {}
    for s in (s0, s1):
        cond = world.conditional_dataset(s)
        x = int(np.argmax(cond))
        if cond[x] < 1.0 - 1e-9:
            raise ValueError("perturbed decomposition needs secrets that pin down a dataset")
        shifts_f[s] = (f1[x], f2[x])
    eta0 = spec.eta_of(world.secrets[s0])
    eta1 = spec.eta_of(world.secrets[s1])
    mu_ref = 0.5 * (eta0 + eta1)
    m0 = _shift_pair(spec, eta0, mu_ref)
    m1v = _shift_pair(spec, eta1, mu_ref)

    g1 = _output_grid(spec.xi1, f1, bins)
    g2 = _output_grid(spec.xi2, f2, bins)
    y1, y2 = np.meshgrid(g1, g2, indexing="ij")

    def state_logs(s, shifts):
        lp, t1, t2 = _noise_terms(spec.xi1, spec.xi2, y1, y2, shifts_f[s])
        log_cop = _coupled_log_density(spec, t1, t2, *shifts) - (
            _norm_logpdf(t1) + _norm_logpdf(t2)
        )
        return lp, log_cop

    unp0, cop0 = state_logs(s0, m0)
    unp1, cop1 = state_logs(s1, m1v)

    unperturbed = unp0 - unp1
    copula_term = cop0 - cop1
    # independent route for the total: full joint log-density per state
    total = (unp0 + cop0) - (unp1 + cop1)

    d0 = np.exp(unp0 + cop0)
    d1 = np.exp(unp1 + cop1)
    pair = DistPair((d0 / d0.sum()).ravel(), (d1 / d1.sum()).ravel())

    # per-mechanism marginals under the shift model: xi density times the
    # normal-score tilt from the latent shift (the latent is standard
    # normal marginally, shifted by the state)
    marginal_pairs = []
    for axis, (xi, grid) in enumerate(zip((spec.xi1, spec.xi2), (g1, g2))):
        rows = []
        for s, latent in ((s0, m0), (s1, m1v)):
            v = grid - shifts_f[s][axis]
            t = _normal_score(xi, v)
            dens = xi.pdf(v) * np.exp(_norm_logpdf(t - latent[axis]) - _norm_logpdf(t))
            rows.append(dens / dens.sum())
        marginal_pairs.append(DistPair(*rows))

    return PerturbedDecomposition(
        total=total,
        unperturbed=unperturbed,
        copula_term=copula_term,
        grid1=g1,
        grid2=g2,
        pair=pair,
        marginal_pairs=tuple(marginal_pairs),
    )


def _output_grid(xi, values: np.ndarray, bins: int) -> np.ndarray:
    """``bins`` points spanning the query ``values`` and 8 spreads of ``xi`` past them."""
    return np.linspace(values.min() - 8.0 * xi.spread, values.max() + 8.0 * xi.spread, bins)


def _normal_score(xi, v):
    """Standard normal quantile of the marginal CDF at ``v``, kept off 0 and 1."""
    return _special().ndtri(np.clip(xi.cdf(v), 1e-300, 1 - 1e-16))


def _check_densities(*xis) -> None:
    """Refuse a marginal without a density before the accounting grids it."""
    for xi in xis:
        if not hasattr(xi, "logpdf"):
            raise ValueError(f"marginal family {xi.family!r} has no density: the copula accounting "
                             "(block_grid, perturbed_decomposition) supports 'laplace' and 'gaussian'")


def _noise_terms(xi1, xi2, y1, y2, shift):
    """The noise pair's log-density and its two normal scores on the grid
    (``y1``, ``y2``) less the query values ``shift``."""
    v1, v2 = y1 - shift[0], y2 - shift[1]
    return xi1.logpdf(v1) + xi2.logpdf(v2), _normal_score(xi1, v1), _normal_score(xi2, v2)


def block_grid(xi1, xi2, world: World, query_maps: tuple, bins: int = 17):
    """The eps_c-free half of the coupled block law: grids g1, g2 and
    ``terms``, the stack of (noise log-density less normal-score
    log-densities, score 1, score 2), each with one grid per dataset, on the
    grid less that dataset's query values.  ``mix_block_law`` completes it."""
    check_cap(bins * bins, f"block grid of {bins} x {bins} cells")
    _check_densities(xi1, xi2)
    f1, f2 = (np.asarray(q, dtype=float) for q in query_maps)
    g1 = _output_grid(xi1, f1, bins)
    g2 = _output_grid(xi2, f2, bins)
    y1, y2 = np.meshgrid(g1, g2, indexing="ij")
    at = np.arange(len(world.datasets))
    lp, t1, t2 = _noise_terms(xi1, xi2, y1, y2, (f1[at, None, None], f2[at, None, None]))
    return g1, g2, np.stack((lp - _norm_logpdf(t1) - _norm_logpdf(t2), t1, t2))


def mix_block_law(spec: GaussianCopulaSpec, world: World, terms) -> np.ndarray:
    """The eps_c half of the coupled block law: the per-secret cell-mass law
    of the coupled pair on ``block_grid``'s shared 2-D grid.

    Each secret's coupled density (state-shifted copula factor times the
    noise product) is taken on the ``terms`` of all its datasets with mass
    at once and mixed over P(x|s): the sum over the dataset axis adds the
    datasets one by one in order, as a loop over them would.  Cell masses
    are midpoint-density approximations, renormalized per secret.
    """
    etas = np.array([spec.eta_of(lbl) for lbl in world.secrets])
    mu_ref = float(etas.mean())
    laws = []
    for s in range(len(world.secrets)):
        m1, m2 = _shift_pair(spec, etas[s], mu_ref)
        cond = world.conditional_dataset(s)
        live = cond != 0.0
        base, t1, t2 = terms if live.all() else terms[:, live]
        logs = base + _coupled_log_density(spec, t1, t2, m1, m2)
        weights = cond[live, None, None]
        dens = (weights * np.exp(logs)).sum(axis=0)
        total = dens.sum()
        if total == 0.0:
            # every cell underflowed (a correlation within ~1e-9 of +-1): shift
            # each log-density by the row's largest, which then reads e^0 = 1
            dens = (weights * np.exp(logs - logs.max())).sum(axis=0)
            total = dens.sum()
        laws.append((dens / total).ravel())
    return np.array(laws)


def conservative_bound(
    spec: GaussianCopulaSpec,
    eps1: float, delta1: float,
    eps2: float, delta2: float,
    delta_g: float,
) -> float:
    """Budget-level upper bound: optimal composition of the coupling cost
    with the two mechanisms' own budgets."""
    return dp_optcomp([(spec.eps_c, spec.delta_c), (eps1, delta1), (eps2, delta2)], delta_g)
