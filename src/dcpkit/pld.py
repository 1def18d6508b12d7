"""Privacy-loss random variables and their discrete distributions.

A privacy-loss distribution is a ``LossProfile``: loss groups in [-inf,
+inf], ascending, each with its p- and q-mass.  Construction from a
distribution pair, exact convolution, the privacy profile delta(eps) and
its inverse, and the ``dcp pld`` CSV format live here; loss distributions
only.  ``LossProfile.hockey_stick`` and ``.joined_epsilon`` read the sum of
two independent losses without convolving them.  The direct
``hockey_stick`` is the profile's independent oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .divergence import DistPair, LossProfile
from .model import check_cap


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
    ``#`` and blank lines skipped: each row an atom of that p-mass and
    q-mass p e^-loss, the ``inf`` row's at +inf."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
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
