"""Privacy-loss random variables and their discrete distributions.

A ``Pld`` holds finite loss atoms plus a mass at +infinity.  Construction
from a distribution pair, exact convolution, the privacy profile delta(eps)
and its inverse (of one PLD, or of the sum of two independent losses
without convolving them), and the copula decomposition of a composed loss
variable into the world-induced, mechanism-dependence, and independent
terms all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .config import PROB_ATOL
from .divergence import DistPair
from .model import DependenceGroup, MechanismKernel, World, composed_law, effective_kernel, lay_out, mix_kernel

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
    n = gid[-1] + 1
    gmass = np.zeros(n)
    gloss = np.zeros(n)
    np.add.at(gmass, gid, masses)
    finite = np.isfinite(losses)
    # -inf atoms merge to -inf; finite atoms to their mass-weighted mean
    np.add.at(gloss, gid[finite], (losses * masses)[finite])
    with np.errstate(invalid="ignore"):
        out_loss = np.where(gmass > 0, gloss / np.where(gmass > 0, gmass, 1.0), 0.0)
    neg_inf_groups = np.zeros(n, dtype=bool)
    np.logical_or.at(neg_inf_groups, gid, ~finite)
    out_loss = np.where(neg_inf_groups, -np.inf, out_loss)
    return out_loss, gmass


@dataclass(frozen=True)
class Pld:
    """Discrete privacy-loss distribution: sorted loss atoms + mass at +inf.

    Losses of -inf (outcomes impossible under the reference measure's
    opposite side) are kept as a single sentinel atom; they contribute
    nothing to any privacy profile.
    """

    losses: np.ndarray
    masses: np.ndarray
    inf_mass: float = 0.0

    def __post_init__(self):
        losses = np.asarray(self.losses, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if losses.shape != masses.shape or losses.ndim != 1:
            raise ValueError("losses and masses must be equal-length vectors")
        if np.any(masses < -PROB_ATOL) or self.inf_mass < -PROB_ATOL:
            raise ValueError("negative probability mass in Pld")
        losses, masses = _merge_atoms(losses, masses)
        total = float(masses.sum()) + self.inf_mass
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"Pld total mass is {total}, not 1")
        losses.flags.writeable = False
        masses.flags.writeable = False
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "inf_mass", float(self.inf_mass))

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
    if a.losses.size * b.losses.size > config.OUTCOME_CAP:
        raise ValueError(
            f"convolution of {a.losses.size} x {b.losses.size} loss atoms exceeds cap {config.OUTCOME_CAP}"
        )
    losses = np.add.outer(a.losses, b.losses).ravel()
    masses = np.multiply.outer(a.masses, b.masses).ravel()
    inf_mass = a.inf_mass + b.inf_mass - a.inf_mass * b.inf_mass
    return Pld(losses=losses, masses=masses, inf_mass=inf_mass)


# e^x is a finite float for |x| up to this
_EXP_MAX = math.log(np.finfo(float).max)


class LossSum:
    """Privacy profile of W + M, the sum of two independent loss variables,
    read off their two PLDs without forming their convolution.

    An atom w of W meets the atoms of M above eps - w; one ``searchsorted``
    into M's sorted losses finds them, and suffix sums of M's masses and of
    its masses times e^-m, built once here, give their contribution.  So a
    profile value costs O(|W| log |M|) and the object O(|W| + |M|) memory,
    where the convolution holds |W| * |M| atoms.  A single PLD is the case
    W = 0 (``privacy_profile``, ``epsilon_for_delta``).

    Those sums hold e^+-loss, so a finite loss beyond +-709.78 (a
    probability ratio past the float range) is refused with ``ValueError``.
    """

    def __init__(self, w: Pld, m: Pld):
        # -inf atoms add nothing at any finite eps, alone or in a sum
        keep = np.isfinite(w.losses)
        self._w, self._w_mass = w.losses[keep], w.masses[keep]
        keep = np.isfinite(m.losses)
        m_loss, m_mass = m.losses[keep], m.masses[keep]
        if (self._w.size and self._w[0] < -_EXP_MAX) or (
                m_loss.size and max(-m_loss[0], m_loss[-1]) > _EXP_MAX):
            raise ValueError(f"a loss atom lies beyond +-{_EXP_MAX:.2f}, where e^loss leaves the float range")
        self._w_weight = self._w_mass * np.exp(-self._w)  # scales M's e^-m sums to e^-(w+m)
        self._m = m_loss
        self._m_top = float(m_loss[-1]) if m_loss.size else 0.0
        # entry j sums M's atoms j, j+1, ...; the entry past the last is 0
        self._mass_above = np.append(np.cumsum(m_mass[::-1])[::-1], 0.0)
        self._b_above = np.append(np.cumsum((m_mass * np.exp(-m_loss))[::-1])[::-1], 0.0)
        self.inf_mass = w.inf_mass + m.inf_mass - w.inf_mass * m.inf_mass

    def _active(self, eps: float) -> np.ndarray:
        """Per atom w: index of the first atom of M with w + m > eps."""
        return np.searchsorted(self._m, eps - self._w, side="right")

    def delta(self, eps: float) -> float:
        """delta(eps) = E[(1 - e^(eps - W - M))+] plus the mass at +inf."""
        t = eps - self._w
        k = self._active(eps)
        # e^t only multiplies a nonzero suffix where t < m_top, so capping t
        # there changes no term and keeps e^t finite at any eps
        tail = np.exp(np.minimum(t, self._m_top)) * self._b_above[k]
        return self.inf_mass + float((self._w_mass * np.maximum(self._mass_above[k] - tail, 0.0)).sum())

    def epsilon(self, delta: float) -> float:
        """Smallest eps >= 0 with delta(eps) <= delta (inf if none).

        On the segment of sum atoms active at eps the profile is a - e^eps b.
        The profile is convex in e^eps and each segment's line lies below
        it, so the root of the line at eps is at most the profile's root:
        starting from 0 the roots climb, and the first one that stays on its
        own segment is exact.  No tolerance, no bisection.
        """
        if delta > 1.0 or delta < 0.0:
            raise ValueError(f"delta must lie in [0, 1], got {delta}")
        if self.delta(0.0) <= delta:
            return 0.0
        if self.inf_mass > delta:
            return math.inf
        eps, k = 0.0, self._active(0.0)
        while True:
            a = self.inf_mass + float((self._w_mass * self._mass_above[k]).sum())
            b = float((self._w_weight * self._b_above[k]).sum())
            if a <= delta:  # nothing left above eps to bring down: it is the root
                return eps
            ratio = (a - delta) / b if b > 0.0 else math.inf
            if ratio == math.inf:  # b underflowed: e^root is past the float range
                raise ValueError(f"the root lies beyond {_EXP_MAX:.2f}, where e^eps leaves the float range")
            root = math.log(ratio)
            k_root = self._active(root)
            if root <= eps or np.array_equal(k_root, k):
                return float(max(root, 0.0))
            eps, k = root, k_root


def privacy_profile(pld: Pld, eps: float) -> float:
    """delta(eps) = E[(1 - e^(eps - L))+] plus the mass at +inf."""
    return LossSum(_ZERO, pld).delta(eps)


def epsilon_for_delta(pld: Pld, delta: float) -> float:
    """Smallest eps >= 0 with privacy_profile(pld, eps) <= delta (inf if none)."""
    return LossSum(_ZERO, pld).epsilon(delta)


def write_pld_csv(pld: Pld, path) -> None:
    """Serialize as ``loss,mass`` rows with a final ``inf,<mass>`` row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("loss,mass\n")
        for loss, mass in zip(pld.losses, pld.masses):
            fh.write(f"{float(loss)!r},{float(mass)!r}\n")
        fh.write(f"inf,{float(pld.inf_mass)!r}\n")


def read_pld_csv(path) -> Pld:
    losses, masses, inf_mass = [], [], 0.0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "loss,mass":
            raise ValueError(f"unexpected header {header!r}")
        for line in fh:
            loss_s, mass_s = line.strip().split(",")
            if loss_s == "inf":
                inf_mass = float(mass_s)
            else:
                losses.append(float(loss_s))
                masses.append(float(mass_s))
    return Pld(losses=np.array(losses), masses=np.array(masses), inf_mass=inf_mass)


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
        return (
            np.isfinite(self.total)
            & np.isfinite(self.world_term)
            & np.isfinite(self.dependence_term)
            & np.isfinite(self.independent_term)
        )

    def world_pld(self) -> Pld:
        """Pushforward of world_term + dependence_term under the s0 law."""
        combined = self.world_term + self.dependence_term
        mass = self.ref_masses
        live = mass > 0.0
        combined, mass = combined[live], mass[live]
        inf_mass = float(mass[np.isposinf(combined)].sum())
        keep = ~np.isposinf(combined)
        return Pld(losses=combined[keep], masses=mass[keep], inf_mass=inf_mass)


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
    if (s0, s1) not in world.adjacency:
        raise ValueError(f"({s0},{s1}) is not an adjacent pair")
    joint = composed_law(world, mechs, dependence)
    effs = [effective_kernel(world, m).matrix for m in mechs]
    groups = [(g.members, mix_kernel(world, g.joint_kernel)) for g in dependence]
    return _decompose(joint, effs, groups, s0, s1)


def _decompose(joint: np.ndarray, effs: list[np.ndarray], groups: list[tuple[tuple[int, ...], np.ndarray]],
               s0: int, s1: int) -> PlrvDecomposition:
    """``decompose_plrv`` from the laws already built: the composed joint, each
    mechanism's effective kernel, each dependence group's members and law."""
    b0, b1 = joint[s0], joint[s1]
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

        log_b0 = np.where(b0 > 0.0, np.log(np.where(b0 > 0.0, b0, 1.0)), -np.inf)
        log_b1 = np.where(b1 > 0.0, np.log(np.where(b1 > 0.0, b1, 1.0)), -np.inf)

    with np.errstate(invalid="ignore"):
        total = log_b0 - log_b1
        # copula mass ratio: joint over the group-product reference, s0 vs s1
        world_term = _log_mass_ratio(log_b0, log_m[0]) - _log_mass_ratio(log_b1, log_m[1])
        # one-sided impossibilities report as +-inf like the total does
        world_term = np.where(np.isnan(world_term) & (b0 > 0.0) & (b1 == 0.0), np.inf, world_term)
        world_term = np.where(np.isnan(world_term) & (b0 == 0.0) & (b1 > 0.0), -np.inf, world_term)
    # outcomes impossible under both secrets are undefined everywhere
    dead = (b0 == 0.0) & (b1 == 0.0)
    total[dead] = np.nan
    world_term[dead] = np.nan
    dep_term[dead] = np.nan
    return PlrvDecomposition(
        total=total,
        world_term=world_term,
        dependence_term=dep_term,
        independent_term=log_id,
        ref_masses=b0,
    )
