"""Privacy-loss random variables and their discrete distributions.

A privacy-loss distribution is a ``LossProfile``: loss groups in [-inf,
+inf], ascending, each with its p- and q-mass.  Construction from a
distribution pair, exact convolution, the privacy profile delta(eps) and
its inverse, and the per-outcome decomposition of a composed loss variable
into the world-induced, mechanism-dependence, and independent terms all
live here; ``LossProfile.hockey_stick`` and ``.joined_epsilon`` read the
sum of two independent losses without convolving them.  The direct
``hockey_stick`` is the profile's independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import DistPair, LossProfile
from .model import DependenceGroup, MechanismKernel, World, check_cap, lay_out


def pld_from_pair(pair: DistPair) -> LossProfile:
    """The pair's ``LossProfile``: loss atoms log(p/q); p-mass where q = 0
    is at +inf, q-mass where p = 0 at -inf."""
    return pair.profile


def convolve(a: LossProfile, b: LossProfile) -> LossProfile:
    """Distribution of the sum of two independent loss variables.

    The outer sum holds |a| * |b| atoms before grouping; a product above
    ``config.OUTCOME_CAP`` is refused before anything is allocated.  Atoms
    without mass (such as -inf + +inf) are dropped.
    """
    check_cap(a.losses.size * b.losses.size, f"convolution of {a.losses.size} x {b.losses.size} loss atoms")
    with np.errstate(invalid="ignore"):  # -inf + +inf is NaN, on an atom without mass
        losses = np.add.outer(a.losses, b.losses).ravel()
    p_mass = np.multiply.outer(a.p_mass, b.p_mass).ravel()
    q_mass = np.multiply.outer(a.q_mass, b.q_mass).ravel()
    keep = (p_mass > 0.0) | (q_mass > 0.0)
    return LossProfile.of_atoms(losses[keep], p_mass[keep], q_mass[keep])


def privacy_profile(pld: LossProfile, eps: float) -> float:
    """delta(eps) = E[(1 - e^(eps - L))+] plus the mass at +inf, for finite eps."""
    return pld.hockey_stick(np.ones(1), np.ones(1), eps)


def epsilon_for_delta(pld: LossProfile, delta: float) -> float:
    """Smallest eps >= 0 with privacy_profile(pld, eps) <= delta, as ``LossProfile.epsilon``."""
    return pld.epsilon(delta)


def pld_csv(pld: LossProfile) -> str:
    """``loss,mass`` rows of the finite groups' loss and p-mass, each float
    as its ``repr``, and a final ``inf,<mass>`` row."""
    finite = np.isfinite(pld.losses)
    rows = "".join(f"{loss!r},{mass!r}\n" for loss, mass in zip(pld.losses[finite].tolist(),
                                                                 pld.p_mass[finite].tolist()))
    return f"loss,mass\n{rows}inf,{pld.inf_mass!r}\n"


def write_pld_csv(pld: LossProfile, path) -> None:
    """Serialize as ``pld_csv`` does."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pld_csv(pld))


def read_pld_csv(path) -> LossProfile:
    """The ``LossProfile`` of a ``dcp pld`` output or ``write_pld_csv`` file,
    ``#`` lines skipped: each row an atom of that p-mass and q-mass p e^-loss,
    the ``inf`` row's at +inf."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if not line.startswith("#")]
    if lines[:1] != ["loss,mass"]:
        raise ValueError(f"unexpected header {lines[:1]}")
    losses, masses = [], []
    for line in lines[1:]:
        loss, mass = line.split(",")
        losses.append(float(loss))
        masses.append(float(mass))
    losses, masses = np.array(losses), np.array(masses)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN or overflow left is refused as a mass
        q_mass = masses * np.exp(-losses)
        # e^-loss past the float range (p below about 1e-308): the log domain
        past = q_mass == math.inf
        q_mass[past] = np.exp(np.log(masses[past]) - losses[past])
    return LossProfile.of_atoms(losses, masses, q_mass)


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
