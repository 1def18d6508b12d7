"""Privacy-loss random variables and their discrete distributions.

A ``Pld`` holds finite loss atoms plus a mass at +infinity.  Construction
from a distribution pair, exact convolution, the privacy profile delta(eps)
and its inverse (of one PLD, or of the sum of two independent losses
without convolving them), and the per-outcome decomposition of a composed
loss variable into the world-induced, mechanism-dependence, and
independent terms all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import PROB_ATOL
from .divergence import DistPair, LossProfile
from .model import DependenceGroup, MechanismKernel, World, check_cap, lay_out

# losses closer than this are merged into one atom (mass-weighted mean)
MERGE_ATOL = 1e-12


def _merge_atoms(losses: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keep = masses > 0.0
    losses, masses = losses[keep], masses[keep]
    if losses.size == 0:
        return losses, masses
    order = np.argsort(losses)
    losses, masses = losses[order], masses[order]
    # group runs of losses within MERGE_ATOL of their predecessor
    new_group = np.empty(losses.size, dtype=bool)
    new_group[0] = True
    with np.errstate(invalid="ignore"):  # -inf - -inf is NaN: -inf atoms join one group
        new_group[1:] = np.diff(losses) > MERGE_ATOL
    gid = np.cumsum(new_group) - 1
    # bincount sums each group left to right, as a scatter-add would
    gmass = np.bincount(gid, masses)
    finite = np.isfinite(losses)  # the rest are -inf (``Pld`` books +inf apart), sorted into group 0
    # finite atoms merge to their mass-weighted mean, -inf atoms to -inf
    out_loss = np.bincount(gid, np.where(finite, losses * masses, 0.0)) / gmass
    if not finite[0]:
        out_loss[0] = -np.inf
    return out_loss, gmass


@dataclass(frozen=True)
class Pld:
    """Discrete privacy-loss distribution: sorted loss atoms + mass at +inf.

    Losses of -inf (outcomes impossible under the reference measure's
    opposite side) are kept as a single sentinel atom; they contribute
    nothing to any privacy profile.  Atoms at +inf join ``inf_mass``.  NaN
    losses and non-finite masses are refused.
    """

    losses: np.ndarray
    masses: np.ndarray
    inf_mass: float = 0.0

    def __post_init__(self):
        losses = np.asarray(self.losses, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        inf_mass = float(self.inf_mass)
        if losses.shape != masses.shape or losses.ndim != 1:
            raise ValueError("losses and masses must be equal-length vectors")
        if np.isnan(losses).any() or not (np.isfinite(masses).all() and math.isfinite(inf_mass)):
            raise ValueError("a Pld loss is NaN or a mass is not finite")
        if np.any(masses < -PROB_ATOL) or inf_mass < -PROB_ATOL:
            raise ValueError("negative probability mass in Pld")
        at_inf = (losses == np.inf) & (masses > 0.0)
        if at_inf.any():
            inf_mass += float(masses[at_inf].sum())
            losses, masses = losses[~at_inf], masses[~at_inf]
        losses, masses = _merge_atoms(losses, masses)
        total = float(masses.sum()) + inf_mass
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"Pld total mass is {total}, not 1")
        losses.flags.writeable = False
        masses.flags.writeable = False
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "inf_mass", inf_mass)

    @staticmethod
    def point(loss: float) -> "Pld":
        return Pld(losses=np.array([loss]), masses=np.array([1.0]))


_ZERO = Pld.point(0.0)  # the loss of a mechanism that reveals nothing


def pld_from_pair(pair: DistPair) -> Pld:
    """Loss atoms log(p/q) with mass p; p-mass where q = 0 goes to +inf."""
    p, q = pair.p, pair.q
    support = p > 0.0
    inf_mass = float(p[support & (q == 0.0)].sum())
    both = support & (q > 0.0)
    losses = np.log(p[both]) - np.log(q[both])
    return Pld(losses=losses, masses=p[both], inf_mass=inf_mass)


def convolve(a: Pld, b: Pld) -> Pld:
    """Distribution of the sum of two independent loss variables.

    The outer sum holds |a| * |b| atoms before merging; a product above
    ``config.OUTCOME_CAP`` is refused before anything is allocated.
    """
    check_cap(a.losses.size * b.losses.size, f"convolution of {a.losses.size} x {b.losses.size} loss atoms")
    losses = np.add.outer(a.losses, b.losses).ravel()
    masses = np.multiply.outer(a.masses, b.masses).ravel()
    inf_mass = a.inf_mass + b.inf_mass - a.inf_mass * b.inf_mass
    return Pld(losses=losses, masses=masses, inf_mass=inf_mass)


# e^x is a finite float for |x| up to this
_EXP_MAX = math.log(np.finfo(float).max)


class LossSum:
    """Privacy profile of W + M, the sum of two independent loss variables,
    read off W's PLD and M's (a PLD or a pair's ``LossProfile``) without
    forming their convolution.

    An atom w of W meets the atoms of M above eps - w; one ``searchsorted``
    into M's sorted losses finds them, and suffix sums of M's p-masses and
    q-masses (a PLD's p-mass times e^-m), built once here, give their
    contribution.  So a profile value costs O(|W| log |M|) and the object
    O(|W| + |M|) memory, where the convolution holds |W| * |M| atoms.  A
    single PLD is the case W = 0 (``privacy_profile``, ``epsilon_for_delta``).

    Those sums hold e^+-loss, so a finite loss beyond +-709.78 (a
    probability ratio past the float range) is refused with ``ValueError``.
    """

    def __init__(self, w: Pld, m: Pld | LossProfile):
        # -inf atoms add nothing at any finite eps, alone or in a sum
        keep = np.isfinite(w.losses)
        self._w, self._w_mass = w.losses[keep], w.masses[keep]
        keep = np.isfinite(m.losses)
        m_loss, m_mass = m.losses[keep], (m.masses if isinstance(m, Pld) else m.p_mass)[keep]
        if (self._w.size and self._w[0] < -_EXP_MAX) or (
                m_loss.size and max(-m_loss[0], m_loss[-1]) > _EXP_MAX):
            raise ValueError(f"a loss atom lies beyond +-{_EXP_MAX:.2f}, where e^loss leaves the float range")
        self._w_weight = self._w_mass * np.exp(-self._w)  # scales M's q-mass sums to e^-(w+m)
        self._m = m_loss
        self._m_top = float(m_loss[-1]) if m_loss.size else 0.0
        m_q = m_mass * np.exp(-m_loss) if isinstance(m, Pld) else m.q_mass[keep]
        # entry j sums M's atoms j, j+1, ...; the entry past the last is 0
        self._mass_above, self._b_above = (np.append(np.cumsum(v[::-1])[::-1], 0.0) for v in (m_mass, m_q))
        self.inf_mass = w.inf_mass + m.inf_mass - w.inf_mass * m.inf_mass

    def _active(self, t: np.ndarray) -> np.ndarray:
        """Per atom w, given t = eps - w, the index of the first atom of M
        above t.  t descends, so it is searched reversed: ``searchsorted`` is
        fastest on ascending keys, and gives the same indices."""
        return np.searchsorted(self._m, t[::-1], side="right")[::-1]

    def _at(self, eps: float) -> tuple[np.ndarray, float]:
        """The search at eps and delta(eps)."""
        t = eps - self._w
        k = self._active(t)
        # e^t only multiplies a nonzero suffix where t < m_top, so capping t
        # there changes no term and keeps e^t finite at any eps
        tail = np.exp(np.minimum(t, self._m_top)) * self._b_above[k]
        return k, self.inf_mass + float((self._w_mass * np.maximum(self._mass_above[k] - tail, 0.0)).sum())

    @cached_property
    def _zero(self) -> tuple[np.ndarray, float]:
        """The search at 0 and delta(0), where every ``epsilon`` call starts:
        taken once per object."""
        return self._at(0.0)

    def delta(self, eps: float) -> float:
        """delta(eps) = E[(1 - e^(eps - W - M))+] plus the mass at +inf."""
        if math.isnan(eps):
            raise ValueError(f"eps must be a number, got {eps}")
        return self._at(eps)[1]

    def epsilon(self, delta: float) -> float:
        """Smallest eps >= 0 with delta(eps) <= delta: inf if none, and if
        delta exceeds a positive +inf mass by at most 4 ulps of the mass.

        On the segment of sum atoms active at eps the profile is a - e^eps b.
        The profile is convex in e^eps and each segment's line lies below
        it, so the root of the line at eps is at most the profile's root:
        starting from 0 the roots climb, and the first one that stays on its
        own segment is exact.  No tolerance, no bisection.
        """
        if not 0.0 <= delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {delta}")
        # the pessimistic rule of ``LossProfile.epsilon``: a positive +inf mass
        # up to 4 ulps below delta reads as above it; first, as delta(0) can equal it
        if self.inf_mass > 0.0 and delta <= self.inf_mass + 4.0 * math.ulp(self.inf_mass):
            return math.inf
        k, delta_0 = self._zero
        if delta_0 <= delta:
            return 0.0
        eps = 0.0
        while True:
            a = self.inf_mass + float((self._w_mass * self._mass_above[k]).sum())
            b = float((self._w_weight * self._b_above[k]).sum())
            if a <= delta:  # nothing left above eps to bring down: it is the root
                return eps
            ratio = (a - delta) / b if b > 0.0 else math.inf
            if ratio == math.inf:  # b underflowed: e^root is past the float range
                raise ValueError(f"the root lies beyond {_EXP_MAX:.2f}, where e^eps leaves the float range")
            root = math.log(ratio)
            k_root = self._active(root - self._w)
            if root <= eps or np.array_equal(k_root, k):
                return float(max(root, 0.0))
            eps, k = root, k_root


def privacy_profile(pld: Pld, eps: float) -> float:
    """delta(eps) = E[(1 - e^(eps - L))+] plus the mass at +inf."""
    return LossSum(_ZERO, pld).delta(eps)


def epsilon_for_delta(pld: Pld, delta: float) -> float:
    """Smallest eps >= 0 with privacy_profile(pld, eps) <= delta, as ``LossSum.epsilon``."""
    return LossSum(_ZERO, pld).epsilon(delta)


def pld_csv(pld: Pld) -> str:
    """``loss,mass`` rows, each float as its ``repr``, and a final ``inf,<mass>`` row."""
    rows = "".join(f"{loss!r},{mass!r}\n" for loss, mass in zip(pld.losses.tolist(), pld.masses.tolist()))
    return f"loss,mass\n{rows}inf,{pld.inf_mass!r}\n"


def write_pld_csv(pld: Pld, path) -> None:
    """Serialize as ``pld_csv`` does."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pld_csv(pld))


def read_pld_csv(path) -> Pld:
    """The ``Pld`` of a ``dcp pld`` output or ``write_pld_csv`` file, ``#``
    lines skipped: each row an atom, the ``inf`` row's mass at +inf."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if not line.startswith("#")]
    if lines[:1] != ["loss,mass"]:
        raise ValueError(f"unexpected header {lines[:1]}")
    losses, masses = [], []
    for line in lines[1:]:
        loss, mass = line.split(",")
        losses.append(float(loss))
        masses.append(float(mass))
    return Pld(losses=np.array(losses), masses=np.array(masses))


@dataclass(frozen=True)
class PlrvDecomposition:
    """Per-outcome split of the composed loss into world, dependence, and
    independent terms, with the reference masses under the first secret.

    Entries can be +-inf where a joint outcome is impossible under one
    secret; those are excluded from the pointwise-sum identity but their
    reference mass is retained.
    """

    total: np.ndarray
    world_term: np.ndarray       # loss induced by the secret/dataset coupling
    dependence_term: np.ndarray  # loss induced by declared mechanism dependence
    independent_term: np.ndarray
    ref_masses: np.ndarray       # composed joint under s0, per outcome

    @property
    def finite(self) -> np.ndarray:
        terms = (self.total, self.world_term, self.dependence_term, self.independent_term)
        return np.logical_and.reduce([np.isfinite(t) for t in terms])


def decompose_plrv(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup],
    s0: int,
    s1: int,
) -> PlrvDecomposition:
    """Split the composed loss log(b_s0/b_s1) into its three sources.

    The world term is computed directly as the log-ratio of discrete copula
    masses (joint over group-product), so the identity total = world +
    dependence + independent is a genuine floating-point check rather than
    a definition.
    """
    from .composition import Composition  # composition builds on this module

    if (s0, s1) not in world.adjacency:
        raise ValueError(f"({s0},{s1}) is not an adjacent pair")
    value = Composition.of(world, mechs, dependence)
    effs, groups = [eff.matrix for eff in value.effs], value.groups
    b0, b1 = value.joint.matrix[s0], value.joint.matrix[s1]
    dims = tuple(eff.shape[1] for eff in effs)
    rows = [s0, s1]

    def _log_mass_ratio(log_num, log_den):
        # log(num/den) with the 0/0 case neutral: an outcome the reference
        # density already forbids carries no coupling information, and its
        # infinity lives in the marginal terms instead
        out = log_num - log_den
        out[np.isneginf(log_num) & np.isneginf(log_den)] = 0.0
        return out

    with np.errstate(divide="ignore", invalid="ignore"):
        logs = [np.log(eff[rows]) for eff in effs]  # per mechanism: rows s0, s1
        log_id = lay_out([((i,), lg[:1] - lg[1:]) for i, lg in enumerate(logs)], dims, np.add)[0]
        # log of the group-product reference density, rows s0 and s1
        log_m = lay_out([((i,), lg) for i, lg in enumerate(logs)], dims, np.add)
        dep_term = np.zeros(b0.size)
        for members, law in groups:
            g = lay_out([(members, np.log(law[rows]))], dims, np.add)
            # members' marginal factors inside this group
            p = lay_out([((i,), logs[i]) for i in members], dims, np.add)
            dep_term = dep_term + _log_mass_ratio(g[0], p[0]) - _log_mass_ratio(g[1], p[1])
            # the group's joint replaces its members' product in the reference density
            log_m = log_m + (g - p)

        log_b0, log_b1 = np.log(np.maximum(value.joint.matrix[rows], 0.0))

    with np.errstate(invalid="ignore"):
        total = log_b0 - log_b1
        # copula mass ratio: joint over the group-product reference, s0 vs s1
        world_term = _log_mass_ratio(log_b0, log_m[0]) - _log_mass_ratio(log_b1, log_m[1])
        # one-sided impossibilities report as +-inf like the total does
        world_term = np.where(np.isnan(world_term) & (b0 > 0.0) & (b1 == 0.0), np.inf, world_term)
        world_term = np.where(np.isnan(world_term) & (b0 == 0.0) & (b1 > 0.0), -np.inf, world_term)
    # outcomes impossible under both secrets are undefined everywhere
    dead = (b0 == 0.0) & (b1 == 0.0)
    total[dead] = world_term[dead] = dep_term[dead] = np.nan
    return PlrvDecomposition(total, world_term, dep_term, log_id, ref_masses=b0)
