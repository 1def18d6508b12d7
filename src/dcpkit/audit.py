"""Bayes-optimal membership-inference auditing.

The exact likelihood-ratio attacker's ROC between two adjacent secrets
and at a law's highest-AUC adjacent pair (``worst_pair_roc``), region
bounds implied by an (eps, delta) certificate, and the protocol comparing a
composed setup against a single mechanism at matched budgets, which reads
``worst_pair_roc`` for both setups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import DistPair, Law, _exp_times
from .model import World


@dataclass(frozen=True)
class RocCurve:
    """Vertices (fpr, tpr) of the optimal attacker's ROC, plus its area.

    Curves that come out below the diagonal are flipped (the attacker may
    invert its decision); ``flipped`` records that.
    """

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float
    flipped: bool = False

    def tpr_at(self, fpr) -> np.ndarray:
        return np.interp(fpr, self.fpr, self.tpr)


def lr_attack_roc(pair: DistPair) -> RocCurve:
    """ROC of the likelihood-ratio attacker distinguishing p from q: the
    Neyman-Pearson sweep with the two sides swapped, read off the profile
    of ``pair.swapped()``: the pair's own loss order, reversed."""
    fpr, tpr = pair.swapped().profile.sweep(0.0)
    auc = float(np.trapezoid(tpr, fpr))
    flipped = False
    if auc < 0.5:
        fpr, tpr = 1.0 - tpr[::-1], 1.0 - fpr[::-1]
        auc = float(np.trapezoid(tpr, fpr))
        flipped = True
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc, flipped=flipped)


def roc_bound_check(roc: RocCurve, eps: float, delta: float) -> float:
    """Largest violation of the ROC region implied by an (eps, delta) bound.

    A certificate constrains every operating point by tpr <= e^eps fpr +
    delta and, through complements, (1 - fpr) <= e^eps (1 - tpr) + delta;
    linearity makes checking the vertices sufficient.
    """
    direct = roc.tpr - _exp_times(eps, roc.fpr) - delta
    complement = (1.0 - roc.fpr) - _exp_times(eps, 1.0 - roc.tpr) - delta
    return float(max(direct.max(), complement.max()))


def worst_pair_roc(world: World, law: Law | np.ndarray) -> tuple[RocCurve, tuple[int, int]]:
    """Highest-AUC adjacent pair for a per-secret outcome law, taken as
    ``Law.of`` takes it: a ``Law`` as it is, a read-only array as the live
    ``Law`` on it when there is one, else a law checked here.

    The AUCs of (s0, s1) and (s1, s0) are equal in exact arithmetic, so each
    adjacent pair (the adjacency is symmetric) is scored once, as (s0, s1)
    with s0 < s1, and rounding cannot pick which orientation is named.  The
    ROC of pair (s0, s1) reads the one loss order of the law's pair, which
    its trade-off curves, tight epsilons and ``tradeoff_dominance`` share."""
    law = Law.of(law)
    candidates = [(s0, s1) for s0, s1 in sorted(world.adjacency) if s0 < s1]
    if not candidates:
        raise ValueError("no adjacent pairs to audit")
    best, best_pair = None, None
    for (s0, s1) in candidates:
        roc = lr_attack_roc(law.pair(s0, s1))
        if best is None or roc.auc > best.auc:
            best, best_pair = roc, (s0, s1)
    return best, best_pair


def compare_protocol(
    world: World,
    law_composed: Law | np.ndarray,
    law_single: Law | np.ndarray,
    grid: list[tuple[float, float]],
) -> list[dict]:
    """Worst-pair attacker AUC of a composed setup vs a single mechanism.

    Each setup is a fixed per-secret outcome law (rows = secrets), taken as
    ``worst_pair_roc`` takes it and swept for its worst-pair ROC once; each
    grid point reads both laws' worst delta at its eps.  A row records each
    setup's worst delta and raises nothing: whether both are certified at
    its grid point is the caller's judgement.
    """
    laws = [Law.of(law) for law in (law_composed, law_single)]
    (roc_a, pair_a), (roc_b, pair_b) = (worst_pair_roc(world, law) for law in laws)
    rows = []
    for eps_g, delta_g in grid:
        d_a, d_b = (law.worst(world, eps=eps_g).value for law in laws)
        rows.append(
            {
                "eps_g": eps_g,
                "delta_g": delta_g,
                "auc_composed": roc_a.auc,
                "auc_single": roc_b.auc,
                "gap": roc_a.auc - roc_b.auc,
                "pair_composed": pair_a,
                "pair_single": pair_b,
                "delta_composed": d_a,
                "delta_single": d_b,
                "roc_composed": roc_a,
                "roc_single": roc_b,
            }
        )
    return rows
